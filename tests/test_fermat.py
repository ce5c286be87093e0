import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from cyheights import character_sums, fermat, finite_field
from cyheights.character_sums import Character, jacobi_sum
from cyheights.cyclotomic import CycInt
from cyheights.errors import BudgetError, InputError, InternalCheckError
from cyheights.fermat import (INFINITE, ArtinComparison, FermatParams,
                              HeightValue, alpha_count, artin_comparison,
                              brute_force_point_count, exponent_multisets,
                              exponent_vectors, fully_rigged_fermat,
                              height_fermat, hodge_numbers_fermat,
                              newton_slopes,
                              point_count_from_zeta, predicted_height,
                              slope_deficient_count, stickelberger_check,
                              stickelberger_exponent, variety_report,
                              zeta_fermat)
from cyheights.finite_field import (FiniteField, build_field,
                                    frobenius_subgroup, order_mod)


def test_params_validation():
    params = FermatParams.create(2, 5, 3)
    assert (params.f, params.q) == (4, 16)
    assert params.is_calabi_yau
    assert not FermatParams.create(7, 5, 1).is_calabi_yau
    with pytest.raises(InputError):
        FermatParams.create(6, 5, 3)
    with pytest.raises(InputError):
        FermatParams.create(5, 5, 3)
    with pytest.raises(InputError):
        FermatParams.create(7, 2, 3)
    with pytest.raises(InputError):
        FermatParams.create(7, 5, 0)


def test_height_value_semantics():
    assert HeightValue.finite(1) == HeightValue.finite(1)
    assert HeightValue.finite(1) != INFINITE
    assert not INFINITE.is_finite
    assert str(INFINITE) == "inf"
    assert INFINITE.json() == "inf"
    assert HeightValue.finite(2).value == 2
    with pytest.raises(InputError):
        HeightValue.finite(0)
    with pytest.raises(InputError):
        INFINITE.value


def test_exponent_vectors_smallest_case():
    assert exponent_vectors(3, 1) == [(1, 1, 1), (2, 2, 2)]


def test_exponent_vectors_counts_and_order():
    vectors = exponent_vectors(4, 2)
    assert len(vectors) == 21
    assert vectors == sorted(vectors)
    assert all(sum(v) % 4 == 0 and all(0 < a < 4 for a in v)
               for v in vectors)
    assert len(exponent_vectors(5, 3)) == 204


@pytest.mark.parametrize("m,r", [(2, 2), (3, 1), (3, 4), (4, 2), (5, 3),
                                 (6, 2), (7, 2)])
def test_alpha_count_closed_form(m, r):
    assert alpha_count(m, r) == len(exponent_vectors(m, r))


def test_exponent_vectors_budget():
    with pytest.raises(BudgetError):
        exponent_vectors(7, 5, budget=100)


@pytest.mark.parametrize("m,r", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 3),
                                 (6, 2), (7, 1), (8, 2)])
def test_multiset_weights_match_vector_walk(m, r):
    vectors = Counter(tuple(sorted(a)) for a in exponent_vectors(m, r))
    multisets = exponent_multisets(m, r)
    assert multisets == dict(vectors)
    assert all(list(alpha) == sorted(alpha) for alpha in multisets)


def test_stickelberger_exponent_is_permutation_invariant():
    for p, m, r in [(2, 5, 2), (3, 8, 1), (7, 5, 2), (2, 7, 2), (5, 6, 2)]:
        for alpha in exponent_multisets(m, r):
            assert len({stickelberger_exponent(perm, p, m)
                        for perm in set(permutations(alpha))}) == 1


def test_frobenius_subgroup_examples():
    assert set(frobenius_subgroup(11, 5)) == {1}
    assert frobenius_subgroup(2, 5) == (1, 2, 4, 3)
    assert set(frobenius_subgroup(3, 8)) == {1, 3}
    with pytest.raises(InputError):
        frobenius_subgroup(10, 5)


@pytest.mark.parametrize("m", [1, 0, -3])
def test_moduli_below_two_are_rejected(m):
    # m = 1 used to loop forever: p % 1 = 0 never reaches 1
    with pytest.raises(InputError, match="must be >= 2"):
        frobenius_subgroup(5, m)
    with pytest.raises(InputError, match="must be >= 2"):
        order_mod(5, m)
    with pytest.raises(InputError, match="must be >= 2"):
        stickelberger_exponent((1, 1, 1), 5, m)


def test_stickelberger_exponent_examples():
    # p = 1 mod m makes H trivial and alpha = (1,...,1) weightless
    assert stickelberger_exponent((1, 1, 1, 1, 1), 11, 5) == 0
    # t = 1,2,3,4 contribute integer parts 0,1,2,3
    assert stickelberger_exponent((1, 1, 1, 1, 1), 2, 5) == 6


def test_stickelberger_reflection_symmetry():
    rng = random.Random(41)
    for p, m, r in [(2, 5, 3), (3, 8, 2), (7, 5, 3), (3, 4, 2)]:
        f = len(frobenius_subgroup(p, m))
        vectors = exponent_vectors(m, r)
        for alpha in rng.sample(vectors, min(12, len(vectors))):
            neg = tuple(m - a for a in alpha)
            assert (stickelberger_exponent(alpha, p, m)
                    + stickelberger_exponent(neg, p, m)) == f * r


def test_stickelberger_h_invariance():
    for p, m, r in [(2, 5, 3), (3, 8, 2)]:
        for alpha in exponent_vectors(m, r)[:10]:
            base = stickelberger_exponent(alpha, p, m)
            for t in frobenius_subgroup(p, m):
                moved = tuple((t * a) % m for a in alpha)
                assert stickelberger_exponent(moved, p, m) == base


def test_height_examples():
    assert height_fermat(11, 5, 3) == HeightValue.finite(1)
    assert height_fermat(2, 5, 3) == INFINITE
    assert height_fermat(3, 4, 2) == INFINITE
    # r = 1: the elliptic curve cases have height 1 or 2, never infinity
    assert height_fermat(7, 3, 1) == HeightValue.finite(1)
    assert height_fermat(2, 3, 1) == HeightValue.finite(2)


def test_height_matches_prediction_small_sweep():
    for m in (4, 5):
        r = m - 2
        for p in [p for p in range(2, 30)
                  if all(p % d for d in range(2, p)) and gcd(p, m) == 1]:
            expected = predicted_height(p, m, r)
            assert height_fermat(p, m, r) == expected


def test_predicted_height_domain():
    assert predicted_height(11, 5, 3) == HeightValue.finite(1)
    assert predicted_height(2, 5, 3) == INFINITE
    assert predicted_height(7, 3, 1) is None     # r = 1 excluded
    assert predicted_height(7, 5, 1) is None     # not Calabi-Yau
    assert predicted_height(7, 6, 3) is None


def test_slope_deficient_count_matches_height():
    assert slope_deficient_count(11, 5, 3) == 1
    assert slope_deficient_count(2, 5, 3) == 0


def test_newton_slopes_shape():
    slopes = newton_slopes(11, 5, 3)
    assert slopes.total_multiplicity() == 204
    assert slopes.as_dict()[Fraction(0)] == 1
    assert slopes.denominator == 1

    k3 = newton_slopes(3, 4, 2)
    assert k3.entries == ((Fraction(1), 21),)


@pytest.mark.parametrize("p,m,r", [(11, 5, 3), (2, 5, 3), (3, 4, 2),
                                   (7, 3, 1), (3, 8, 2)])
def test_newton_slopes_symmetry(p, m, r):
    slopes = newton_slopes(p, m, r)
    assert slopes.reflected(r).entries == slopes.entries
    assert all(0 <= s <= r for s, _ in slopes.entries)


def test_hodge_numbers_quintic():
    hodge = hodge_numbers_fermat(5, 3)
    assert hodge.h == (1, 101, 101, 1)


@pytest.mark.parametrize("m,r", [(4, 2), (5, 3), (6, 4)])
def test_hodge_symmetry_and_total(m, r):
    hodge = hodge_numbers_fermat(m, r)
    assert hodge.h == tuple(reversed(hodge.h))
    assert sum(hodge.h) == alpha_count(m, r)


def test_fully_rigged_examples():
    assert fully_rigged_fermat(3, 4, 2) is True
    assert fully_rigged_fermat(5, 4, 2) is False
    assert fully_rigged_fermat(3, 8, 6) is False
    with pytest.raises(InputError):
        fully_rigged_fermat(3, 4, 3)
    with pytest.raises(InputError):
        fully_rigged_fermat(3, 3, 2)
    with pytest.raises(InputError):
        fully_rigged_fermat(3, 6, 2)  # gcd(p, m) != 1


def test_fully_rigged_matches_power_loop():
    # the definition: some power p^nu is -1 mod m; nu < m covers a period
    for m in range(4, 30):
        for p in (2, 3, 5, 7, 11, 13, 29, 31):
            if gcd(p, m) == 1:
                assert fully_rigged_fermat(p, m, 2) == any(
                    pow(p, nu, m) == m - 1 for nu in range(1, m))


def test_artin_comparison_cases():
    assert artin_comparison(3, 4, 2) == ArtinComparison(True, True)
    assert artin_comparison(3, 8, 6) == ArtinComparison(True, False)
    assert artin_comparison(17, 8, 6) == ArtinComparison(False, False)
    with pytest.raises(InputError):
        artin_comparison(3, 8, 5)
    with pytest.raises(InputError):
        artin_comparison(3, 6, 2)


def test_zeta_fermat_cubic():
    zeta = zeta_fermat(7, 3, 1)
    assert zeta.poly_coeffs == (1, 1, 7)
    assert zeta.sign_exponent == 1
    assert zeta.pole_q_powers == (0, 1)


def test_zeta_quartic_surface_shape():
    zeta = zeta_fermat(3, 4, 2)
    assert zeta.degree == 21
    assert zeta.poly_coeffs[0] == 1
    assert zeta.sign_exponent == -1
    # every eigenvalue has |j| = q = 9, so the top coefficient is +-9^21
    assert abs(zeta.poly_coeffs[-1]) == 9**21


def test_point_counts_match_brute_force_small():
    zeta = zeta_fermat(7, 3, 1)
    for s in (1, 2):
        assert (point_count_from_zeta(zeta, s)
                == brute_force_point_count(7, 3, 1, s))
    # a non-Calabi-Yau instance: the plane quartic curve over GF(9)
    quartic = zeta_fermat(3, 4, 1)
    assert quartic.degree == 6
    assert (point_count_from_zeta(quartic, 1)
            == brute_force_point_count(3, 4, 1, 1))


def test_point_count_rejects_bad_s():
    zeta = zeta_fermat(7, 3, 1)
    with pytest.raises(InputError):
        point_count_from_zeta(zeta, 0)


def test_brute_force_examples_and_budget():
    assert brute_force_point_count(7, 3, 1, 1) == 9
    with pytest.raises(BudgetError):
        brute_force_point_count(7, 3, 1, 1, budget=10)


def test_stickelberger_check_report():
    report = stickelberger_check(3, 4, 2)
    assert report["all_equal"]
    assert len(report["rows"]) == report["total"] == 21
    assert not [row for row in report["rows"] if not row["equal"]]
    assert report["equal_count"] == 21
    assert {row["exponent"] for row in report["rows"]} == {2}
    assert (report["f"], report["q"], report["precision_failures"]) == (2, 9, 0)



# f = 1, f > 1, composite m and r >= 2
@pytest.mark.parametrize("p,m,r", [(13, 3, 1), (2, 7, 3), (3, 8, 2),
                                   (5, 4, 2)])
def test_stickelberger_rows_follow_per_vector_definition(p, m, r):
    report = stickelberger_check(p, m, r)
    assert ([tuple(row["alpha"]) for row in report["rows"]]
            == exponent_vectors(m, r))
    for row in report["rows"]:
        assert row["exponent"] == stickelberger_exponent(tuple(row["alpha"]),
                                                         p, m)
        assert row["equal"] and row["error"] is None
    assert report["all_equal"]

def test_variety_report_shape():
    from cyheights.fermat import variety_report
    report = variety_report(3, 4, 2)
    assert report["height"] == "inf"
    assert report["fully_rigged"] is True
    assert report["slopes"] == [["1", 21]]
    assert report["alpha_count"] == 21
    assert report["hodge"] == [1, 19, 1]
    assert variety_report(11, 5, 3)["fully_rigged"] is None


def _per_vector_oracle(p, m, r):
    """Slopes, Hodge numbers and deficient count from a literal walk over
    every exponent vector, one Stickelberger exponent per vector."""
    f = len(frobenius_subgroup(p, m))
    exponents = Counter()
    hodge = [0] * (r + 1)
    for alpha in exponent_vectors(m, r):
        exponents[stickelberger_exponent(alpha, p, m)] += 1
        hodge[sum(alpha) // m - 1] += 1
    slopes = tuple(sorted((Fraction(e, f), n) for e, n in exponents.items()))
    deficient = sum(n for e, n in exponents.items() if e < f)
    return slopes, hodge, deficient


# r = 1 curves, non-Calabi-Yau shapes, f > 1, and even-dimensional
# Calabi-Yau cases where the Artin comparison applies
ORACLE_GRID = [(7, 3, 1), (2, 3, 1), (3, 4, 1), (2, 5, 1), (3, 5, 2),
               (3, 4, 2), (5, 4, 2), (2, 5, 3), (11, 5, 3), (2, 7, 3),
               (5, 6, 3), (3, 8, 2), (5, 6, 4), (7, 6, 4), (3, 8, 4)]


@pytest.mark.parametrize("p,m,r", ORACLE_GRID)
def test_slope_views_match_per_vector_oracle(p, m, r):
    slopes, hodge, deficient = _per_vector_oracle(p, m, r)
    height = HeightValue.finite(deficient) if deficient else INFINITE
    assert newton_slopes(p, m, r).entries == slopes
    assert hodge_numbers_fermat(m, r).h == tuple(hodge)
    assert slope_deficient_count(p, m, r) == deficient
    assert height_fermat(p, m, r) == height
    report = variety_report(p, m, r)
    assert report["slopes"] == [[str(s), n] for s, n in slopes]
    assert report["hodge"] == hodge
    assert report["slope_deficient_count"] == deficient
    assert report["height"] == height.json()
    if r % 2 == 0 and m == r + 2:
        assert artin_comparison(p, m, r).additive_type == (deficient == 0)


def test_slope_budget_counts_multisets():
    # (8, 6) has 720601 exponent vectors but only C(13, 7) = 1716 multisets
    with pytest.raises(BudgetError):
        height_fermat(3, 8, 6, budget=100)
    with pytest.raises(BudgetError):
        hodge_numbers_fermat(8, 6, budget=1715)
    assert height_fermat(3, 8, 6, budget=1716) == INFINITE


def test_hodge_rejects_bad_shape():
    with pytest.raises(InputError):
        hodge_numbers_fermat(1, 2)
    with pytest.raises(InputError):
        hodge_numbers_fermat(5, 0)


def _product_oracle(p, m, r):
    """P(T) = prod (1 - j(alpha) T) multiplied out factor by factor in
    Z[zeta_m][T], one linear factor and one Jacobi sum per exponent
    vector."""
    chi = Character(build_field(p, FermatParams.create(p, m, r).f), m)
    coeffs = [CycInt.one(m)]
    for alpha in exponent_vectors(m, r):
        j = jacobi_sum(alpha, chi)
        coeffs.append(CycInt.zero(m))
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] = coeffs[i] - j * coeffs[i - 1]
    return tuple(c.as_rational_integer() for c in coeffs)


def _enumeration_oracle(p, m, r, s):
    """Projective solutions of sum x_i^m = 0 over GF(q^s), enumerated with
    the first nonzero coordinate normalized to 1."""
    field = build_field(p, FermatParams.create(p, m, r).f * s)
    big_q = field.q
    exp = tuple(field.powers())
    mth = [0] + [exp[m * k % (big_q - 1)] for k in range(big_q - 1)]

    def count_tails(positions, acc):
        if positions == 0:
            return 1 if acc == 0 else 0
        return sum(count_tails(positions - 1, field.add(acc, y)) for y in mth)

    return sum(count_tails(r + 1 - lead, 1) for lead in range(r + 2))


# p = 2, f > 1, r odd and even, m prime and composite
ZETA_GRID = [(7, 3, 1), (2, 3, 1), (2, 3, 2), (3, 4, 1), (3, 4, 2),
             (5, 4, 2), (13, 4, 3), (2, 5, 1), (2, 5, 2), (11, 5, 2),
             (7, 6, 2), (5, 6, 2), (2, 7, 1), (3, 8, 1), (2, 9, 1),
             (3, 10, 1)]


@pytest.mark.parametrize("p,m,r", ZETA_GRID)
def test_zeta_matches_product_oracle(p, m, r):
    assert zeta_fermat(p, m, r).poly_coeffs == _product_oracle(p, m, r)


POINT_GRID = [(7, 3, 1, 1), (7, 3, 1, 2), (2, 3, 1, 2), (2, 3, 2, 2),
              (3, 4, 1, 2), (3, 4, 2, 1), (5, 4, 2, 2), (2, 5, 1, 1),
              (2, 5, 3, 1), (11, 5, 2, 1), (7, 6, 2, 1), (13, 4, 3, 1),
              (3, 8, 1, 2)]


@pytest.mark.parametrize("p,m,r,s", POINT_GRID)
def test_point_count_matches_enumeration(p, m, r, s):
    assert brute_force_point_count(p, m, r, s) == _enumeration_oracle(p, m,
                                                                      r, s)


def test_point_count_oracle_uses_no_characters(monkeypatch):
    # the oracle must not share characters or Jacobi sums with zeta_fermat
    def forbidden(*args, **kwargs):
        raise AssertionError("the point-count oracle used character code")

    monkeypatch.setattr(fermat, "Character", forbidden)
    monkeypatch.setattr(character_sums, "Character", forbidden)
    monkeypatch.setattr(fermat, "jacobi_sum_table", forbidden)
    # N_2 of the Fermat cubic curve at p = 7, as in the README
    assert brute_force_point_count(7, 3, 1, 2) == 63


def test_a_walk_that_does_not_close_is_an_internal_error(monkeypatch):
    # a step that never returns to 1: both O(q) passes exhaust the walk,
    # so both reach its closing check
    monkeypatch.setattr(finite_field, "_multiplier", lambda *_: lambda x: 2)
    field = build_field(7, 1)
    walk = field.powers()
    assert [next(walk) for _ in range(6)] == [1, 2, 2, 2, 2, 2]
    with pytest.raises(InternalCheckError, match="generator order"):
        next(walk)
    with pytest.raises(InternalCheckError, match="generator order"):
        Character(field, 3)
    with pytest.raises(InternalCheckError, match="generator order"):
        brute_force_point_count(7, 3, 1, 1)


def test_point_budget_counts_field_subtractions():
    # (r + 1)(d + 1)(Q - 1)/d with Q = 49, d = gcd(3, 48) = 3
    with pytest.raises(BudgetError):
        brute_force_point_count(7, 3, 1, 2, budget=127)
    assert brute_force_point_count(7, 3, 1, 2, budget=128) == 63


def test_zeta_rejects_uneven_orbit_multiplicity(monkeypatch):
    # j(2,2,2) = conj j(1,1,1); a table giving both vectors the same value
    # passes the Weil check but breaks Galois stability
    real = fermat.jacobi_sum_table

    def skewed(chi, alphas):
        table = real(chi, alphas)
        table[(2, 2, 2)] = table[(1, 1, 1)]
        return table

    monkeypatch.setattr(fermat, "jacobi_sum_table", skewed)
    with pytest.raises(InternalCheckError, match="Galois orbit"):
        zeta_fermat(7, 3, 1)


@pytest.mark.parametrize("check", [zeta_fermat, stickelberger_check],
                         ids=lambda check: check.__name__)
def test_zeta_rejects_off_modulus_eigenvalue(monkeypatch, check):
    real = fermat.jacobi_sum_table

    def corrupted(chi, alphas):
        table = real(chi, alphas)
        table[(1, 1, 1)] = CycInt.from_coeffs(3, (8, 3))
        return table

    monkeypatch.setattr(fermat, "jacobi_sum_table", corrupted)
    with pytest.raises(InternalCheckError, match="q\\^r"):
        check(7, 3, 1)


def test_zeta_and_valuations_do_not_depend_on_the_generator(monkeypatch):
    # GF(31) with the generator 11 instead of 3: the character and the
    # valuation prime are pinned from the same generator, so P(T) and
    # every valuation stand
    zeta, report = zeta_fermat(31, 5, 1), stickelberger_check(31, 5, 1)
    assert build_field(31, 1).generator == 3
    other = FiniteField(31, 1, (0, 1), 11)
    # 11 is a primitive root mod 31
    assert sorted(other.powers()) == list(range(1, 31))
    monkeypatch.setattr(fermat, "build_field", lambda p, f, **_: other)
    assert zeta_fermat(31, 5, 1) == zeta
    assert stickelberger_check(31, 5, 1) == report


def test_power_product_expansion():
    # (1 - T)^2 (1 + T + 7T^2)
    assert fermat._expand_power_product([([1, -1], 2), ([1, 1, 7], 1)],
                                        4) == (1, -1, 6, -13, 7)
    with pytest.raises(InternalCheckError):
        fermat._expand_power_product([([1, -1], 2)], 3)


@pytest.mark.parametrize("p,m,r", [(7, 3, 1), (5, 4, 2), (2, 5, 2)])
def test_alpha_budget_counts_exponent_vectors(p, m, r):
    # |A| is deg P and the row count; the multiset walk is smaller at
    # (5, 4, 2) and (2, 5, 2), and visits more heads than |A| at (7, 3, 1)
    count = alpha_count(m, r)
    for check in (zeta_fermat, stickelberger_check):
        with pytest.raises(BudgetError, match="budget"):
            check(p, m, r, alpha_budget=count - 1)
        check(p, m, r, alpha_budget=count)


def test_invariants_never_walk_exponent_vectors(monkeypatch):
    def refuse(*_, **__):
        raise AssertionError("exponent_vectors called")

    monkeypatch.setattr(fermat, "exponent_vectors", refuse)
    assert zeta_fermat(7, 3, 1).poly_coeffs == (1, 1, 7)
    assert zeta_fermat(3, 4, 2).degree == 21
    assert variety_report(11, 5, 3)["height"] == 1
    assert newton_slopes(3, 4, 2).entries == ((Fraction(1), 21),)
    assert hodge_numbers_fermat(5, 3).h == (1, 101, 101, 1)
