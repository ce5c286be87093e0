import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest

from cyheights import character_sums, fermat, finite_field
from cyheights.character_sums import Character, jacobi_sum
from cyheights.cyclotomic import CycInt, _schoolbook_product, modulus_squared
from cyheights.errors import BudgetError, InputError, InternalCheckError
from cyheights.fermat import (INFINITE, FermatParams,
                              alpha_count, artin_comparison,
                              brute_force_point_count, exponent_multisets,
                              exponent_vectors, fully_rigged_fermat,
                              height_fermat, hodge_numbers_fermat,
                              newton_slopes,
                              point_count_from_zeta, predicted_height,
                              stickelberger_check, variety_report,
                              zeta_fermat)
from cyheights.finite_field import (FiniteField, build_field,
                                    frobenius_subgroup, units_mod)
from cyheights.kummer import abelian_height
from cyheights.padic import PadicContext, default_precision, padic_valuation
from oracles import exponent_histogram_by_states, stickelberger_exponent


def test_params_validation():
    params = FermatParams.create(2, 5, 3)
    assert (params.f, params.q) == (4, 16)
    with pytest.raises(InputError):
        FermatParams.create(6, 5, 3)
    with pytest.raises(InputError):
        FermatParams.create(5, 5, 3)
    with pytest.raises(InputError):
        FermatParams.create(7, 2, 3)
    with pytest.raises(InputError):
        FermatParams.create(7, 5, 0)


def test_every_height_is_a_positive_int_or_infinite():
    assert INFINITE == "inf"
    heights = [height_fermat(p, m, r) for p, m, r in ORACLE_GRID]
    heights += [abelian_height(n, rank)
                for n in (2, 3, 4) for rank in range(n + 1)]
    assert INFINITE in heights and 1 in heights and 2 in heights
    for height in heights:
        assert height == INFINITE or (type(height) is int and height >= 1)


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


@pytest.mark.parametrize("m", [1, 0, -3])
def test_alpha_count_rejects_a_degree_below_two(m):
    with pytest.raises(InputError):
        alpha_count(m, 1)


def test_exponent_vectors_budget():
    with pytest.raises(BudgetError):
        exponent_vectors(7, 5, budget=100)


# (9, 3) and (6, 4) hold multisets whose keys would collide with one bit
# less per digit: (2, 4, 4, 4, 4) and (1, 1, 1, 1, 5), (2, 3, 3, 3, 3, 4)
# and (1, 1, 1, 1, 4, 4)
@pytest.mark.parametrize("m,r", [(3, 1), (7, 1), (4, 2), (9, 3), (6, 4)])
def test_vector_walk_keys_name_multisets_one_to_one(m, r):
    vectors, keys = fermat._vector_walk(m, r, fermat.DEFAULT_ALPHA_BUDGET)
    # the walk's order and members, against a literal filter
    assert vectors == [alpha for alpha in product(range(1, m), repeat=r + 2)
                       if sum(alpha) % m == 0]
    named = {}
    for alpha, key in zip(vectors, keys):
        named.setdefault(key, set()).add(tuple(sorted(alpha)))
    assert all(len(multisets) == 1 for multisets in named.values())
    assert len(named) == len(exponent_multisets(m, r))


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
    assert height_fermat(11, 5, 3) == 1
    assert height_fermat(2, 5, 3) == INFINITE
    assert height_fermat(3, 4, 2) == INFINITE
    # r = 1: the elliptic curve cases have height 1 or 2, never infinity
    assert height_fermat(7, 3, 1) == 1
    assert height_fermat(2, 3, 1) == 2


def test_height_matches_prediction_small_sweep():
    for m in (4, 5):
        r = m - 2
        for p in [p for p in range(2, 30)
                  if all(p % d for d in range(2, p)) and gcd(p, m) == 1]:
            expected = predicted_height(p, m, r)
            assert height_fermat(p, m, r) == expected


def test_predicted_height_domain():
    assert predicted_height(11, 5, 3) == 1
    assert predicted_height(2, 5, 3) == INFINITE
    assert predicted_height(7, 3, 1) is None     # r = 1 excluded
    assert predicted_height(7, 5, 1) is None     # not Calabi-Yau
    assert predicted_height(7, 6, 3) is None


def test_slope_deficient_count_matches_height():
    assert variety_report(11, 5, 3)["slope_deficient_count"] == 1
    assert variety_report(2, 5, 3)["slope_deficient_count"] == 0


def test_newton_slopes_shape():
    slopes = newton_slopes(11, 5, 3)
    assert sum(mult for _, mult in slopes) == 204
    assert dict(slopes)[Fraction(0)] == 1
    assert all(s.denominator == 1 for s, _ in slopes)  # f = 1

    k3 = newton_slopes(3, 4, 2)
    assert k3 == ((Fraction(1), 21),)


@pytest.mark.parametrize("p,m,r", [(11, 5, 3), (2, 5, 3), (3, 4, 2),
                                   (7, 3, 1), (3, 8, 2)])
def test_newton_slopes_symmetry(p, m, r):
    slopes = newton_slopes(p, m, r)
    assert tuple(sorted((r - s, mult) for s, mult in slopes)) == slopes
    assert all(0 <= s <= r for s, _ in slopes)


def test_hodge_numbers_quintic():
    hodge = hodge_numbers_fermat(5, 3)
    assert hodge == (1, 101, 101, 1)


@pytest.mark.parametrize("m,r", [(4, 2), (5, 3), (6, 4)])
def test_hodge_symmetry_and_total(m, r):
    hodge = hodge_numbers_fermat(m, r)
    assert hodge == tuple(reversed(hodge))
    assert sum(hodge) == alpha_count(m, r)


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


@pytest.mark.parametrize("p,m,r", [(9, 4, 2), (15, 8, 6), (1, 4, 2)])
def test_fully_rigged_rejects_a_p_that_is_not_prime(p, m, r):
    with pytest.raises(InputError, match="prime"):
        fully_rigged_fermat(p, m, r)


def test_fully_rigged_matches_power_loop():
    # the definition: some power p^nu is -1 mod m; nu < m covers a period
    for m in range(4, 30):
        for p in (2, 3, 5, 7, 11, 13, 29, 31):
            if gcd(p, m) == 1:
                assert fully_rigged_fermat(p, m, 2) == any(
                    pow(p, nu, m) == m - 1 for nu in range(1, m))


def test_artin_comparison_cases():
    assert artin_comparison(3, 4, 2) == {"additive_type": True,
                                         "fully_rigged": True}
    assert artin_comparison(3, 8, 6) == {"additive_type": True,
                                         "fully_rigged": False}
    assert artin_comparison(17, 8, 6) == {"additive_type": False,
                                          "fully_rigged": False}
    with pytest.raises(InputError):
        artin_comparison(3, 8, 5)
    with pytest.raises(InputError):
        artin_comparison(3, 6, 2)


def test_zeta_fermat_cubic():
    zeta = zeta_fermat(7, 3, 1)
    assert zeta["poly_coeffs"] == [1, 1, 7]
    assert zeta["sign_exponent"] == 1
    assert zeta["pole_q_powers"] == [0, 1]


def test_zeta_quartic_surface_shape():
    zeta = zeta_fermat(3, 4, 2)
    assert zeta["degree"] == 21
    assert zeta["poly_coeffs"][0] == 1
    assert zeta["sign_exponent"] == -1
    # every eigenvalue has |j| = q = 9, so the top coefficient is +-9^21
    assert abs(zeta["poly_coeffs"][-1]) == 9**21


def test_point_counts_match_brute_force_small():
    zeta = zeta_fermat(7, 3, 1)
    for s in (1, 2):
        assert (point_count_from_zeta(zeta, s)
                == brute_force_point_count(7, 3, 1, s))
    # a non-Calabi-Yau instance: the plane quartic curve over GF(9)
    quartic = zeta_fermat(3, 4, 1)
    assert quartic["degree"] == 6
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


def _vector_verdicts(report):
    """(alpha, verdict) per exponent vector of a stickelberger_check
    record: vectors[i] with verdicts[keys[i]]."""
    return [(alpha, report["verdicts"][key])
            for alpha, key in zip(report["vectors"], report["keys"])]


def test_stickelberger_check_report():
    report = stickelberger_check(3, 4, 2)
    rows = _vector_verdicts(report)
    assert report["all_equal"]
    assert len(rows) == report["total"] == 21
    assert not [v for _, v in rows if not v["equal"]]
    assert report["equal_count"] == 21
    assert {v["exponent"] for _, v in rows} == {2}
    assert (report["f"], report["q"], report["precision_failures"]) == (2, 9, 0)



# f = 1, f > 1, composite m and r >= 2
@pytest.mark.parametrize("p,m,r", [(13, 3, 1), (2, 7, 3), (3, 8, 2),
                                   (5, 4, 2)])
def test_stickelberger_rows_follow_per_vector_definition(p, m, r):
    report = stickelberger_check(p, m, r)
    rows = _vector_verdicts(report)
    assert [tuple(alpha) for alpha, _ in rows] == exponent_vectors(m, r)
    for alpha, verdict in rows:
        assert verdict["exponent"] == stickelberger_exponent(tuple(alpha),
                                                             p, m)
        assert verdict["equal"] and verdict["error"] is None
    assert report["all_equal"]

# the fields_warm shapes: distinct Jacobi sums, <p>-orbits and
# (Z/m)^*-orbits of exponent multisets; 352, 490 and 76 in all
@pytest.mark.parametrize("p,m,r,distinct,p_orbits,unit_orbits", [
    (2, 73, 1, 64, 104, 13), (2, 63, 1, 71, 119, 29),
    (7, 57, 1, 152, 194, 20), (5, 31, 1, 60, 60, 6), (3, 11, 2, 5, 13, 8)])
def test_one_galois_image_per_orbit_and_one_valuation_per_sum(
        monkeypatch, p, m, r, distinct, p_orbits, unit_orbits):
    f = FermatParams.create(p, m, r).f
    field = build_field(p, f)
    multisets = exponent_multisets(m, r)

    def orbit_count(group):
        return len({frozenset(tuple(sorted(t * a % m for a in alpha))
                              for t in group) for alpha in multisets})

    assert orbit_count(frobenius_subgroup(p, m)) == p_orbits
    assert orbit_count(units_mod(m)) == unit_orbits
    images = []
    real_galois = CycInt.galois
    with monkeypatch.context() as patch:
        patch.setattr(CycInt, "galois",
                      lambda j, t: images.append(t) or real_galois(j, t))
        table = character_sums.jacobi_sum_table(Character(field, m),
                                                multisets)
    # one sigma_p check per evaluated sum, and one image per coset but
    # the identity for each Galois orbit of values, made once
    cosets = len(units_mod(m)) // f
    value_orbits = len(_value_orbits(table, m))
    assert len(images) == unit_orbits + value_orbits * (cosets - 1)
    assert len(set(table.values())) == distinct

    ctx = PadicContext(field, m, default_precision(f, r))
    per_multiset = {alpha: padic_valuation(table[alpha], ctx)
                    for alpha in multisets}
    valued = []
    monkeypatch.setattr(fermat, "padic_valuation",
                        lambda j, ctx: valued.append(j)
                        or padic_valuation(j, ctx))
    report = stickelberger_check(p, m, r)
    assert len(valued) == len(set(valued)) == distinct
    for alpha, verdict in _vector_verdicts(report):
        assert verdict["valuation"] == per_multiset[tuple(sorted(alpha))]


def test_the_fields_warm_round_makes_494_galois_images(monkeypatch):
    # per shape: the fill's images and sigma_p checks, and one conjugate
    # per Galois orbit in modulus_squared; the orbit walk makes none
    shapes = {(2, 73, 1): 77, (2, 63, 1): 125, (7, 57, 1): 212,
              (5, 31, 1): 66, (3, 11, 2): 14}
    calls = Counter()
    real_galois = CycInt.galois
    monkeypatch.setattr(CycInt, "galois",
                        lambda j, t: calls.update([shape]) or real_galois(
                            j, t))
    for shape in shapes:
        stickelberger_check(*shape)
    assert calls == shapes
    assert sum(calls.values()) == 494


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
    height = deficient or INFINITE
    assert newton_slopes(p, m, r) == slopes
    assert hodge_numbers_fermat(m, r) == tuple(hodge)
    assert sum(n for s, n in newton_slopes(p, m, r) if s < 1) == deficient
    assert height_fermat(p, m, r) == height
    report = variety_report(p, m, r)
    assert report["slopes"] == [[str(s), n] for s, n in slopes]
    assert report["hodge"] == hodge
    assert report["slope_deficient_count"] == deficient
    assert report["height"] == height
    if r % 2 == 0 and m == r + 2:
        assert artin_comparison(p, m, r)["additive_type"] == (deficient == 0)


def _walk_profile(multisets, m, r, subgroup):
    """The slope profile by the multiset walk: the exponent
    (_multiset_exponent) and the Hodge level of each multiset, weighted
    by its orbit size."""
    exponent = fermat._multiset_exponent(m, subgroup)
    exponents, hodge = Counter(), [0] * (r + 1)
    for alpha, weight in multisets.items():
        exponents[exponent(alpha)] += weight
        hodge[sum(alpha) // m - 1] += weight
    return exponents, hodge


@pytest.mark.parametrize("m", range(3, 13))
def test_slope_profile_matches_the_multiset_walk(m):
    # every <p> of the primes below, and the empty subgroup
    primes = (2, 3, 5, 7, 11, 13, 17, 29)
    subgroups = {()} | {frobenius_subgroup(p, m)
                        for p in primes if gcd(p, m) == 1}
    for r in range(1, 7):
        multisets = exponent_multisets(m, r)
        for subgroup in subgroups:
            exponents, levels = fermat._histograms(
                m, r, (subgroup, fermat._LEVELS), 10**6, {})
            assert ((exponents, [levels[k] for k in range(r + 1)])
                    == _walk_profile(multisets, m, r, subgroup))


@pytest.mark.parametrize("p,m,r", [(3, 8, 6), (2, 7, 5), (13, 6, 4),
                                   (11, 5, 3), (3, 10, 8), (5, 12, 10),
                                   (7, 5, 1), (2, 9, 3)])
def test_slope_profile_matches_the_walk_up_to_dimension_10(p, m, r):
    params = FermatParams.create(p, m, r)
    exponents, hodge = _walk_profile(exponent_multisets(m, r), m, r,
                                     params.subgroup)
    histograms, levels = fermat._histograms(
        m, r, (params.subgroup, fermat._LEVELS), 10**6, {})
    assert (histograms, [levels[k] for k in range(r + 1)]) == (
        exponents, hodge)
    report = variety_report(p, m, r)  # and passes the slope checks
    assert report["hodge"] == hodge
    assert report["slopes"] == [
        [str(Fraction(e, params.f)), n] for e, n in sorted(exponents.items())]


def test_a_histogram_that_loses_a_vector_is_an_internal_error(monkeypatch):
    real = fermat._exponent_histogram

    def lossy(m, r, subgroup):
        histogram = real(m, r, subgroup)
        histogram[max(histogram)] -= 1
        return histogram

    monkeypatch.setattr(fermat, "_exponent_histogram", lossy)
    with pytest.raises(InternalCheckError, match="closed form"):
        variety_report(11, 5, 3)


def test_weights_match_their_definition():
    # every m <= 400, with <p> of the primes below, {1} and the empty
    # subgroup: summed once per orbit, w(a) is still the sum over t of
    # (t * a mod m) at every a
    for m in range(2, 401):
        subgroups = {(), (1,)} | {frobenius_subgroup(p, m)
                                  for p in (2, 3, 5) if gcd(p, m) == 1}
        for subgroup in subgroups:
            assert fermat._weights(m, subgroup) == [
                sum([t * a % m for t in subgroup]) for a in range(m)], (
                    m, subgroup)


@pytest.mark.parametrize("p,m,r,passes", [(17, 8, 6, 1), (11, 5, 3, 1),
                                          (29, 7, 1, 1), (13, 6, 4, 1),
                                          (3, 8, 6, 2), (2, 5, 3, 2),
                                          (5, 6, 4, 2)])
def test_variety_report_runs_one_pass_per_distinct_subgroup(
        monkeypatch, p, m, r, passes):
    # at p = 1 mod m, <p> = {1} and the exponent pass is the level pass
    real, calls = fermat._exponent_histogram, []
    monkeypatch.setattr(fermat, "_exponent_histogram",
                        lambda *args: calls.append(args) or real(*args))
    report = variety_report(p, m, r)
    assert len(calls) == passes
    assert report["hodge"] == list(hodge_numbers_fermat(m, r))


def test_slope_passes_refuse_a_large_subgroup_at_once(deadline):
    # 2 has order m - 1 mod 30011 and mod 100003, and the transition bound
    # refuses after the first step; the weights it reads cost O(m), not
    # O(m f)
    with pytest.raises(BudgetError, match="more than 1000000 DP"):
        variety_report(2, 30011, 1)
    with pytest.raises(BudgetError, match="more than 1000000 DP"):
        newton_slopes(2, 100003, 1)


def _doctored(monkeypatch, exponents, hodge):
    monkeypatch.setattr(fermat, "_histograms",
                        lambda m, r, subgroups, budget, passes: [
                            Counter(exponents),
                            Counter(dict(enumerate(hodge)))])


# (11, 5, 3) is ordinary: slopes 0, 1, 2 and 3 with the Hodge numbers
# 1, 101, 101 and 1 as multiplicities, and height 1
def test_asymmetric_slopes_are_an_internal_error(monkeypatch):
    _doctored(monkeypatch, {0: 1, 1: 102, 2: 100, 3: 1}, [1, 101, 101, 1])
    with pytest.raises(InternalCheckError, match="not symmetric"):
        variety_report(11, 5, 3)


@pytest.mark.parametrize("exponents,message", [
    ({0: 2, 1: 100, 2: 100, 3: 2}, "below the Hodge polygon at x = 2"),
    ({0: 1, 1: 100, 2: 100, 3: 1}, "end apart")])
def test_newton_below_hodge_is_an_internal_error(monkeypatch, exponents,
                                                 message):
    _doctored(monkeypatch, exponents, [1, 101, 101, 1])
    with pytest.raises(InternalCheckError, match=message):
        variety_report(11, 5, 3)


def test_height_above_the_hodge_bound_is_an_internal_error(monkeypatch):
    # Newton equal to Hodge, both symmetric, but h^(3,0) = 52 slopes 0
    # give height 52 > h^(2,1) + 1 = 51
    _doctored(monkeypatch, {0: 52, 1: 50, 2: 50, 3: 52}, [52, 50, 50, 52])
    with pytest.raises(InternalCheckError, match="exceeds h"):
        variety_report(11, 5, 3)
    assert variety_report(7, 6, 3)["height"] == 52  # not Calabi-Yau


def test_frobenius_subgroup_built_once_per_record(monkeypatch):
    calls = []

    def counted(p, m):
        calls.append((p, m))
        return frobenius_subgroup(p, m)

    for module in (finite_field, fermat, character_sums):
        monkeypatch.setattr(module, "frobenius_subgroup", counted)
    report = variety_report(3, 4, 2)  # r even, m >= 4: reads fully_rigged
    assert report["fully_rigged"] is True and report["f"] == 2
    assert calls == [(3, 4)]
    # FermatParams.create builds it once, and jacobi_sum_table once from chi
    for record in (zeta_fermat, stickelberger_check):
        calls.clear()
        record(3, 4, 2)
        assert calls == [(3, 4)] * 2


def test_budgets_are_checked_before_derived_work(monkeypatch):
    def refuse(*_, **__):
        raise AssertionError("derived work ran before the budget check")

    def small(count):  # alpha_count(m, r), in full
        def guarded(a, b):
            assert b < 100, f"{count.__name__}({a}, {b}) formed in full"
            return count(a, b)
        return guarded

    monkeypatch.setattr(fermat, "frobenius_subgroup", refuse)
    monkeypatch.setattr(finite_field, "frobenius_subgroup", refuse)
    monkeypatch.setattr(fermat, "alpha_count", small(alpha_count))
    m = 10**9 + 7
    for call in (lambda: newton_slopes(2, m, 1),
                 lambda: height_fermat(2, m, 1),
                 lambda: variety_report(2, m, 1),
                 lambda: artin_comparison(3, 10**6 + 2, 10**6),
                 lambda: zeta_fermat(3, m, 1),
                 lambda: stickelberger_check(3, m, 1),
                 lambda: brute_force_point_count(2, m, 1, 1),
                 lambda: hodge_numbers_fermat(10**6 + 1, 10**6 - 1),
                 lambda: exponent_vectors(5, 10**9)):
        with pytest.raises(BudgetError, match="budget exceeded"):
            call()


def test_budget_messages_for_counts_never_formed():
    with pytest.raises(BudgetError,
                       match="more than 1000000 DP transitions"):
        height_fermat(3, 10**6 + 1, 10**6 - 1)
    with pytest.raises(BudgetError, match=r"\|A\| = more than 1000000"):
        zeta_fermat(3, 5, 2 * 10**6)
    with pytest.raises(BudgetError,
                       match="more than 100000000 field subtractions"):
        brute_force_point_count(7, 3, 1, 200000)
    with pytest.raises(BudgetError,
                       match="more than 100000000 field subtractions"):
        brute_force_point_count(2, 10**8 + 1, 1, 1)
    with pytest.raises(BudgetError, match="more than 100 DP transitions"):
        height_fermat(11, 5, 3, budget=100)
    with pytest.raises(BudgetError, match=r"\|A\| = 204 > 203"):
        zeta_fermat(11, 5, 3, alpha_budget=203)


def _transitions(m, r, subgroup):
    """The transition bound of one slope pass, in closed form: after k
    steps at most min(g (k spread / d + 1), (m-1)^k) states, g = gcd(sum
    of subgroup, m) and d the step of the w(a) (1 when they are equal),
    each leaving by m - 1 transitions in the first r + 1 steps and by one
    at the close."""
    w = [sum(t * a % m for t in subgroup) for a in range(1, m)]
    d = gcd(*(wa - w[0] for wa in w)) or 1
    spread = (max(w) - min(w)) // d
    g = gcd(sum(subgroup), m)
    states = [min(g * (k * spread + 1), (m - 1)**k) for k in range(r + 2)]
    return sum(states[:-1]) * (m - 1) + states[-1]


def _states_reached(m, r, subgroup):
    """The distinct (sum a mod m, sum w(a)) states after each of the
    r + 2 steps, by a forward walk over sets that counts nothing."""
    w = [sum(t * a % m for t in subgroup) for a in range(m)]
    states, sizes = {(0, 0)}, [1]
    for _ in range(r + 1):
        states = {((s + a) % m, total + w[a])
                  for s, total in states for a in range(1, m)}
        sizes.append(len(states))
    return sizes


@pytest.mark.parametrize("p,m,r", [(3, 8, 6), (17, 8, 6), (5, 12, 10),
                                   (3, 14, 12), (29, 14, 12), (2, 7, 5),
                                   (7, 5, 1), (2, 9, 3)])
def test_transition_bound_covers_the_transitions_made(p, m, r):
    for subgroup in (frobenius_subgroup(p, m), (1,), ()):
        bound = _transitions(m, r, subgroup)
        assert fermat._transition_bound(m, r, subgroup, bound) == bound
        assert fermat._transition_bound(m, r, subgroup, bound - 1) is None
        sizes = _states_reached(m, r, subgroup)
        assert sum(sizes[:-1]) * (m - 1) + sizes[-1] <= bound


def test_slope_budget_counts_transitions():
    # (8, 6) has 720601 exponent vectors; at p = 3 the slope pass is
    # charged 1376 transitions (w = 4, 8, 4, 8, 12, 8, 12 steps by 4, so
    # 2k + 1 values of sum w after k steps, 4 states per value) and makes
    # 1362; the Hodge-level pass 974 (one state per value, exactly the
    # transitions made); the empty subgroup keeps m = 8 states per value,
    # and no caller runs it
    assert (_transitions(8, 6, (1,)), _transitions(8, 6, (1, 3)),
            _transitions(8, 6, ())) == (974, 1376, 344)
    assert _states_reached(8, 6, (1,)) == [1, 7, 13, 19, 25, 31, 37, 43]
    assert _states_reached(8, 6, (1, 3)) == [1, 7, 18, 28, 36, 44, 52, 60]
    with pytest.raises(BudgetError, match="more than 100 DP transitions"):
        height_fermat(3, 8, 6, budget=100)
    # height_fermat runs the slope pass only, hodge_numbers_fermat the
    # level pass only, and variety_report both
    with pytest.raises(BudgetError):
        height_fermat(3, 8, 6, budget=1375)
    assert height_fermat(3, 8, 6, budget=1376) == INFINITE
    with pytest.raises(BudgetError):
        hodge_numbers_fermat(8, 6, budget=973)
    assert hodge_numbers_fermat(8, 6, budget=974)[0] == 1
    with pytest.raises(BudgetError):
        variety_report(3, 8, 6, budget=2349)
    assert variety_report(3, 8, 6, budget=2350)["height"] == INFINITE


def _subgroups(m):
    """Every cyclic subgroup of (Z/m)^*, sorted, and the empty one."""
    return sorted({tuple(sorted(frobenius_subgroup(u, m)))
                   for u in units_mod(m)} | {()})


def _small_walks():
    """(m, r, subgroup) for every subgroup of _subgroups(m) at m <= 16,
    r <= 8 and (m - 1)^(r + 1) <= 3 * 10^6."""
    return [(m, r, subgroup) for m in range(2, 17) for r in range(1, 9)
            if (m - 1)**(r + 1) <= 3 * 10**6 for subgroup in _subgroups(m)]


def test_transition_bound_covers_every_small_walk():
    # the bound covers the transitions made, and charges at most 1.35
    # times them
    cases = _small_walks()
    for m, r, subgroup in cases:
        sizes = _states_reached(m, r, subgroup)
        made = sum(sizes[:-1]) * (m - 1) + sizes[-1]
        bound = fermat._transition_bound(m, r, subgroup, 10**12)
        assert made <= bound <= 1.35 * made, (m, r, subgroup)
    assert len(cases) == 396


def test_packed_passes_match_the_dict_dp():
    # the small walks, m = 2 and the subgroups (1,) and () among them,
    # and at m = r + 2 <= 24 the 99 cyclic subgroups and the empty one
    cases = _small_walks() + [(m, m - 2, subgroup) for m in range(3, 25)
                              for subgroup in _subgroups(m)]
    for m, r, subgroup in cases:
        packed = fermat._exponent_histogram(m, r, subgroup)
        assert packed == exponent_histogram_by_states(m, r, subgroup), (
            m, r, subgroup)
    assert len(cases) == 396 + 99 + 22


def test_criterion_two_sweep_fits_the_default_budget():
    # the height theorem at m = r + 2 <= 20, every prime p < 100 prime to m
    rows = [(p, m) for m in range(4, 21) for p in range(2, 100)
            if finite_field.is_prime(p) and gcd(p, m) == 1]
    assert len(rows) == 401
    for p, m in rows:
        bound = sum(fermat._transition_bound(m, m - 2, subgroup, 10**12)
                    for subgroup in (frobenius_subgroup(p, m), (1,)))
        assert bound <= fermat.DEFAULT_ALPHA_BUDGET, (p, m)


@pytest.mark.parametrize("m,primes", [
    (19, (5, 7, 11, 17, 23, 43, 47, 61, 73, 83)),
    (20, (3, 7, 13, 17, 23, 37, 43, 47, 53, 67, 73, 83, 97))])
def test_criterion_two_rows_that_need_the_step_of_w(m, primes):
    # the rows whose spread of w alone, undivided by its step, exceeds
    # the default budget: each fits it, and its height is the predicted one
    for p in primes:
        report = variety_report(p, m, m - 2)
        assert report["agree"] is True, p


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
    return [c.as_rational_integer() for c in coeffs]


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
    assert zeta_fermat(p, m, r)["poly_coeffs"] == _product_oracle(p, m, r)


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


def test_a_walk_that_does_not_close_is_an_internal_error(monkeypatch,
                                                         walk_breakers):
    # a walk that never returns to 1: every O(q) pass exhausts it, so
    # each reaches its closing check.  GF(31) takes its first list of 5
    # powers from a walk in lists of 2 and multiplies that list after it.
    field = build_field(31, 1)
    first_lists = {"kernel": [[1, 2, 2, 2, 2], [2, 2, 2, 2, 2]],
                   "images": [[1, 1, 1, 1, 1], [1, 1, 1, 1, 1]]}
    for part, break_walk in walk_breakers.items():
        with monkeypatch.context() as patch:
            break_walk(patch)
            blocks = field.power_blocks(5)
            assert [next(blocks) for _ in range(2)] == first_lists[part]
            with pytest.raises(InternalCheckError, match="generator order"):
                list(blocks)
            with pytest.raises(InternalCheckError, match="generator order"):
                list(field.powers())
            with pytest.raises(InternalCheckError, match="generator order"):
                Character(field, 3)
            with pytest.raises(InternalCheckError, match="generator order"):
                brute_force_point_count(31, 3, 1, 1)


def test_point_count_refuses_a_large_subgroup_before_building_it(
        monkeypatch, deadline):
    # (r + 1) m = 10^8 fits the budget, but 2 has order 24999995 mod
    # 49999991: the walk of powers of 2 stops past 2^26, and no <2> is built
    def refuse(*_):
        raise AssertionError("<p> built")

    monkeypatch.setattr(fermat, "frobenius_subgroup", refuse)
    with pytest.raises(BudgetError,
                       match="more than 100000000 field subtractions"):
        brute_force_point_count(2, 49999991, 1, 1)


@pytest.mark.parametrize("p,m,r,s,message", [
    (3, 6, 1, 1, "gcd"), (4, 49999991, 1, 1, "prime"),
    (3, 2, 1, 100, "degree"), (3, 49999991, 0, 1, "dimension")])
def test_point_count_input_errors_come_before_the_walk(p, m, r, s, message):
    # each input would walk its powers of p past the budget
    with pytest.raises(InputError, match=message):
        brute_force_point_count(p, m, r, s)


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
    # the fill evaluates j(1, 1, 1) only; at p = 7 = 1 mod 3 sigma_p is the
    # identity, so the fill keeps the off-modulus value and records its orbit
    real = character_sums.jacobi_sum
    off = CycInt.from_coeffs(3, (8, 3))
    monkeypatch.setattr(character_sums, "jacobi_sum",
                        lambda alpha, chi: off if alpha == (1, 1, 1)
                        else real(alpha, chi))
    with pytest.raises(InternalCheckError, match="q\\^r"):
        check(7, 3, 1)


def _value_orbits(table, m):
    """The (Z/m)^*-orbits of the table's distinct values, each as a set,
    in the order their first members appear."""
    orbits = {}
    for j in table.values():
        if not any(j in orbit for orbit in orbits.values()):
            orbits[j] = {j.galois(t) for t in units_mod(m)}
    return list(orbits.values())


def _table_of(p, m, r):
    chi = Character(build_field(p, FermatParams.create(p, m, r).f), m)
    return character_sums.jacobi_sum_table(chi, exponent_multisets(m, r))


def _double(values, orbits):
    """A JacobiTable that holds values and records orbits, to stand in for
    jacobi_sum_table."""
    out = character_sums.JacobiTable(values)
    out.orbits = orbits
    return out


_CHECKS = pytest.mark.parametrize("check", [zeta_fermat, stickelberger_check],
                                  ids=lambda check: check.__name__)


@_CHECKS
def test_every_member_of_an_orbit_is_checked(monkeypatch, check):
    # (2, 31, 1): f = 5, six images per orbit.  Whichever member of an
    # orbit is corrupted in the table, the corrupted value lies in no
    # orbit the fill recorded
    real = _table_of(2, 31, 1)
    orbit = max(real.orbits[1:], key=len)
    assert len(orbit) == 6
    for beta in orbit:
        table = {alpha: j * 2 if j == beta else j
                 for alpha, j in real.items()}
        monkeypatch.setattr(fermat, "jacobi_sum_table",
                            lambda chi, alphas, table=table: _double(
                                table, real.orbits))
        with pytest.raises(InternalCheckError,
                           match=re.escape(f"= {beta * 2!r} lies in no ")):
            check(2, 31, 1)


@_CHECKS
def test_a_sum_frobenius_moves_is_caught_outside_the_table(monkeypatch,
                                                          check):
    # zeta * j keeps |j|^2 = q^r, but sigma_2 moves it since 2 != 1 mod 31;
    # one multiset of a later orbit gets it, the rest of its coset keeps j
    real = _table_of(2, 31, 1)
    alpha = next(a for a, j in real.items() if j in real.orbits[-1])
    moved = real[alpha] * CycInt.root_of_unity(31)
    assert moved.galois(2) != moved and moved not in real.values()
    table = {**real, alpha: moved}
    monkeypatch.setattr(fermat, "jacobi_sum_table",
                        lambda chi, alphas: _double(table, real.orbits))
    with pytest.raises(InternalCheckError,
                       match=re.escape(f"j({alpha}) = {moved!r} lies in")):
        check(2, 31, 1)


def test_a_foreign_sum_is_refused(monkeypatch):
    # (2, 31, 1): -j keeps |j|^2 = q^r and sigma_2(-j) = -j, so only the
    # membership check tells that the fill never made it.  The layer
    # makes no Galois image but the conjugate in modulus_squared, one per
    # recorded orbit
    real = _table_of(2, 31, 1)
    alpha = list(real)[-1]
    foreign = -real[alpha]
    assert foreign not in real.values()
    calls = []
    real_galois = CycInt.galois
    monkeypatch.setattr(CycInt, "galois",
                        lambda j, t: calls.append(t) or real_galois(j, t))
    for check in (zeta_fermat, stickelberger_check):
        monkeypatch.setattr(fermat, "jacobi_sum_table",
                            lambda chi, alphas: _double(real, real.orbits))
        calls.clear()
        check(2, 31, 1)
        assert calls == [30] * len(real.orbits)
        monkeypatch.setattr(fermat, "jacobi_sum_table",
                            lambda chi, alphas: _double(
                                {**real, alpha: foreign}, real.orbits))
        with pytest.raises(InternalCheckError,
                           match=re.escape(f"j({alpha}) = {foreign!r}")):
            check(2, 31, 1)


def test_zeta_rejects_an_orbit_recorded_in_two_parts(monkeypatch):
    # (2, 31, 1): an orbit recorded in two parts, its first member and
    # the rest, passes the modulus, membership and multiplicity checks,
    # but the norm of the first part, 1 - j T, is not in Z[T]
    real = _table_of(2, 31, 1)
    k = next(k for k, orbit in enumerate(real.orbits) if len(orbit) > 1)
    orbits = [*real.orbits[:k], real.orbits[k][:1], real.orbits[k][1:],
              *real.orbits[k + 1:]]
    monkeypatch.setattr(fermat, "jacobi_sum_table",
                        lambda chi, alphas: _double(real, orbits))
    with pytest.raises(InternalCheckError, match="T\\^1 in a Galois-orbit "
                                                 "norm is not a rational"):
        zeta_fermat(2, 31, 1)


# the fields_warm shapes: 352 distinct Jacobi sums in 49 Galois orbits
@pytest.mark.parametrize("p,m,r,orbits", [
    (2, 73, 1, 8), (2, 63, 1, 16), (7, 57, 1, 16), (5, 31, 1, 6),
    (3, 11, 2, 3)])
def test_one_modulus_check_per_galois_orbit(monkeypatch, p, m, r, orbits):
    assert len(_value_orbits(_table_of(p, m, r), m)) == orbits
    checked = []
    monkeypatch.setattr(fermat, "modulus_squared",
                        lambda j: checked.append(j) or modulus_squared(j))
    stickelberger_check(p, m, r)
    assert len(checked) == orbits


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


def test_power_product_expansion_takes_three_products_per_factor(
        monkeypatch):
    # four factors, exponents 2 to 5: P equals the repeated products, and
    # D and E take 3 products per factor, 12 in all, not k^2 = 16
    factors = [([1, -1], 2), ([1, 1, 7], 3), ([1, 0, -2, 5], 2), ([1, 4], 5)]
    expected = [1]
    for norm, mult in factors:
        for _ in range(mult):
            expected = _schoolbook_product(expected, norm)
    calls = []
    monkeypatch.setattr(fermat, "_schoolbook_product",
                        lambda a, b: calls.append(1) or _schoolbook_product(
                            a, b))
    assert fermat._expand_power_product(factors, 19) == tuple(expected)
    assert len(calls) == 3 * len(factors)


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
    assert zeta_fermat(7, 3, 1)["poly_coeffs"] == [1, 1, 7]
    assert zeta_fermat(3, 4, 2)["degree"] == 21
    assert variety_report(11, 5, 3)["height"] == 1
    assert newton_slopes(3, 4, 2) == ((Fraction(1), 21),)
    assert hodge_numbers_fermat(5, 3) == (1, 101, 101, 1)
