import random
from fractions import Fraction
from math import isqrt

import pytest

from cyheights import kummer
from cyheights.errors import BudgetError, InputError, InternalCheckError
from cyheights.fermat import INFINITE, height_fermat
from cyheights.kummer import (abelian_height, ec_count_points, kummer_report,
                              lattice_from_generators, lattice_index,
                              legendre, period_lattice, standard_lattice)
from oracles import hnf_rows_by_elimination


def _primes(lo, hi):
    return [p for p in range(lo, hi)
            if p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))]


# curves for the oracle tests; (-1, 0) has full 2-torsion over every F_p
ORACLE_CURVES = [(0, 1), (0, 7), (1, 0), (-1, 0), (2, 3), (5, 7)]


def _symbols(p):
    """The Legendre symbols (v/p) for v = 0..p-1, read off the squares."""
    symbol = [-1] * p
    symbol[0] = 0
    for y in range(1, (p + 1) // 2):
        symbol[y * y % p] = 1
    return symbol


def _sweep(p, a, b, symbol):
    """#E(F_p) = p + 1 + sum over x of (f(x)/p): the oracle for the count
    from point orders, which shares none of its steps."""
    return p + 1 + sum(symbol[((x * x + a) * x + b) % p] for x in range(p))


def _nonsingular(p):
    return [(a, b) for a, b in ORACLE_CURVES if (4 * a**3 + 27 * b**2) % p]


def test_legendre_small():
    assert [legendre(a, 7) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]


def test_curve_validation():
    with pytest.raises(InputError):
        ec_count_points(4, 0, 1)
    with pytest.raises(InputError):
        ec_count_points(3, 0, 1)   # p >= 5 only
    with pytest.raises(InputError):
        ec_count_points(7, 0, 0)   # singular
    with pytest.raises(InputError):
        ec_count_points(5, 0, 5)   # b = 0 mod 5, singular


def test_point_counts_by_enumeration():
    # independent oracle: enumerate all affine points directly
    for p in (5, 7, 11, 13):
        affine = sum(1 for x in range(p) for y in range(p)
                     if (y * y - x**3 - 1) % p == 0)
        assert ec_count_points(p, 0, 1) == affine + 1
    assert ec_count_points(5, 0, 1) == 6
    assert ec_count_points(7, 0, 1) == 12


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 997, 10007])
def test_residue_table_count_matches_legendre_sweep(p):
    for a, b in [(0, 1), (2, 3), (1, 1), (-1, 0), (5, 7)]:
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue  # singular reduction
        sweep = p + 1 + sum(legendre(x**3 + a * x + b, p) for x in range(p))
        assert ec_count_points(p, a, b) == sweep


def test_trace_and_hasse():
    assert kummer_report(5)["trace"] == 0
    assert kummer_report(7)["trace"] == -4
    for p in _primes(5, 200):
        if (4 * 8 + 27 * 9) % p == 0:
            continue  # y^2 = x^3 + 2x + 3 degenerates at p | 275
        trace = kummer_report(p, 2, 3)["trace"]
        assert trace * trace <= 4 * p


@pytest.mark.parametrize("lo,hi", [(230, 1000), (1000, 2000), (2000, 3000)])
def test_point_orders_match_the_sweep(lo, hi):
    # above 229 the count comes from point orders on E and its twist
    for p in _primes(lo, hi):
        symbol = _symbols(p)
        for a, b in _nonsingular(p):
            assert ec_count_points(p, a, b) == _sweep(p, a, b, symbol), \
                (p, a, b)


@pytest.mark.parametrize("p,a,b", [(100003, 0, 1), (100003, -1, 0),
                                   (999983, 0, 1)])
def test_point_orders_match_the_sweep_at_large_p(p, a, b):
    assert ec_count_points(p, a, b) == _sweep(p, a, b, _symbols(p))


@pytest.mark.parametrize("a,b", [(11, 154), (0, 1), (2, 3)])
def test_order_multiples_match_a_scan(a, b):
    # every point (c*x, c^2) the walk can meet at p, with r = isqrt(4p):
    # at p = 233 the baby steps are 1..6, and on the twist of
    # y^2 = x^3 + 11x + 154 the point at x = 1 has order 12, so its sixth
    # baby step is 2-torsion.  The giant walk starts at (a*w + offset)*P:
    # a baby added at 233, subtracted at 239, the last baby added at 251
    # and none at 359.
    for p, offset in (233, 2), (239, -5), (251, 6), (359, 0):
        r = isqrt(4 * p)
        s = isqrt(r) + 1
        assert (p + 1 - r + 2 * s) % (2 * s + 1) - s == offset
        for x in range(p):
            c = ((x * x + a) * x + b) % p
            if c == 0:
                continue
            A, P = a * c * c % p, (c * x % p, c * c % p)
            Q, scan = kummer._ec_mul(p + 1 - r, P, A, p), set()
            for n in range(p + 1 - r, p + 2 + r):
                if Q is None:
                    scan.add(n)
                Q = kummer._ec_add(Q, P, A, p)
            assert kummer._order_multiples(P, A, p, r) == scan, (p, x)
        assert ec_count_points(p, a, b) == _sweep(p, a, b, _symbols(p))


@pytest.mark.parametrize("p,most", [(10007, 46), (100003, 71),
                                    (999983, 115)])
def test_point_counts_take_few_group_operations(monkeypatch, p, most):
    # the giant step and the walk's start come from the baby steps, not
    # from scalar multiples of the point; y^2 = x^3 + 1 is counted by CM
    # in ec_count_points, so the search is called directly
    calls, real = [], kummer._ec_add

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kummer, "_ec_add", counting)
    kummer._count_by_orders(p, 0, 1)
    assert len(calls) <= most


def test_point_orders_take_over_above_229(monkeypatch):
    # Mestre's theorem needs p > 229; 229 and 233 are consecutive primes.
    # Above it the j = 0 curves (a = 0) are counted by CM, every other
    # curve by point orders, and nothing is swept.
    seen = []

    def record(name):
        real = getattr(kummer, name)

        def recording(p, *args):
            seen.append((name, p))
            return real(p, *args)

        monkeypatch.setattr(kummer, name, recording)

    record("_count_by_orders")
    record("_count_by_cm")
    for p in (229, 233):
        for a, b in _nonsingular(p):
            assert ec_count_points(p, a, b) == _sweep(p, a, b, _symbols(p))
    assert seen == [("_count_by_orders" if a else "_count_by_cm", 233)
                    for a, _ in _nonsingular(233)]


def test_point_count_budget():
    # 1000003 is the first prime above DEFAULT_PRIME_BUDGET
    assert kummer.DEFAULT_PRIME_BUDGET == 10**6
    with pytest.raises(BudgetError, match="p = 1000003 > 1000000"):
        ec_count_points(1000003, 0, 1)


@pytest.mark.parametrize("p", [233, 10007, 999983])
def test_hasse_check_rejects_a_count_one_past_the_bound(monkeypatch, p):
    # |a_p| = 1 + isqrt(4p) > 2 sqrt(p), yet (1 + isqrt(4p))^2 <= 5p; the
    # Hasse check runs before the point-order check of the CM path
    for path, a in ("_count_by_orders", 1), ("_count_by_cm", 0):
        monkeypatch.setattr(kummer, path, lambda p, *_: p + 2 + isqrt(4 * p))
        with pytest.raises(InternalCheckError, match="Hasse"):
            ec_count_points(p, a, 1)


# j = 0 curves for the CM tests; y^2 = x^3 - 432 is the Fermat cubic
CM_CURVES = (1, 2, 3, 5, 7, -432)


def test_cm_counts_match_the_point_orders():
    # the CM count, through its point-order check, against baby-step
    # giant-step, which shares none of its steps, at both residues mod 3
    for p in _primes(230, 20000) + [999979, 999983]:
        for b in CM_CURVES:
            assert ec_count_points(p, 0, b) == \
                kummer._count_by_orders(p, 0, b % p), (p, b)


def _non_residue(p):
    """The least g that is neither a square nor a cube mod p."""
    return next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) != 1
                and pow(g, (p - 1) // 3, p) != 1)


def test_point_order_check_refuses_every_other_sextic_twist(monkeypatch):
    # y^2 = x^3 + b g^k, k = 1..5, are the other sextic twists of
    # y^2 = x^3 + b: their counts are what CM returns with chi in place of
    # conj(chi) (the twist by 1/(16 b^2)) or with pi times a unit other
    # than 1, that is, not made primary.  Each is refused, most on E; a few
    # pass on E and are refused only on the twist (607 and 1033 at b = 3,
    # 1213 at b = -432, 1831 at b = 2).
    sides = set()
    # CM returns the wrong count that the loop below sets
    monkeypatch.setattr(kummer, "_count_by_cm", lambda p, b: wrong)
    for p in (607, 1033, 1213, 1831):
        g = _non_residue(p)
        for b in CM_CURVES:
            right = kummer._count_by_orders(p, 0, b % p)
            for k in range(1, 6):
                wrong = kummer._count_by_orders(p, 0, b * g**k % p)
                if wrong == right:
                    continue
                with pytest.raises(InternalCheckError,
                                   match="point order") as error:
                    ec_count_points(p, 0, b)
                sides.add(str(error.value).rsplit(" on ", 1)[1])
    assert sides == {"E", "the twist"}


@pytest.mark.parametrize("p", [233, 241, 10007, 10009])
def test_point_order_check_skips_the_3_torsion(monkeypatch, p):
    # b = -1/4 mod p: at x = 1, c = 1 + b = -3b, and its point has 3P = O,
    # which n*P = O cannot tell from any other multiple of 3, so the
    # check must pass it over, as it does the 2-torsion at x = 0
    b = -pow(4, -1, p) % p
    c = (1 + b) % p
    assert c == -3 * b % p and kummer._kills(3, (c, c * c % p), p)
    real = kummer._kills
    handed = []
    monkeypatch.setattr(kummer, "_kills",
                        lambda n, P, p: handed.append(P) or real(n, P, p))
    ec_count_points(p, 0, b)
    assert len(handed) == 2
    assert not [P for P in handed if P[0] == 0 or real(3, P, p)]


def test_default_count_at_the_budget_edge_takes_no_baby_steps(monkeypatch):
    def refuse(*args):
        raise AssertionError("baby-step giant-step ran")

    monkeypatch.setattr(kummer, "_order_multiples", refuse)
    assert ec_count_points(999983, 0, 1) == 999984


@pytest.mark.parametrize("p", [7, 13, 31])
def test_jacobian_multiples_match_the_affine_ones(p):
    # every point of every y^2 = x^3 + b over F_p, for every n up to
    # 2p + 3: the Jacobian ladder meets O, P and -P midway on points of
    # small order
    for b in range(1, p):
        points = [(x, y) for x in range(p) for y in range(p)
                  if (y * y - x**3 - b) % p == 0]
        for P in points:
            Q = P
            for n in range(1, 2 * p + 4):
                assert kummer._kills(n, P, p) == (Q is None), (b, P, n)
                Q = kummer._ec_add(Q, P, 0, p)


def test_p_rank_examples():
    assert kummer_report(5)["p_rank"] == 0
    assert kummer_report(7)["p_rank"] == 1
    assert kummer_report(13)["p_rank"] == 1


def test_supersingular_pattern_mod_3():
    # from the sweep or baby-step giant-step: on y^2 = x^3 + 1 the CM
    # count at p = 2 mod 3 is this pattern itself, so it checks nothing
    for p in _primes(5, 20000):
        points = (ec_count_points(p, 0, 1) if p <= kummer.MESTRE_BOUND
                  else kummer._count_by_orders(p, 0, 1))
        assert (points == p + 1) == (p % 3 == 2)


def test_abelian_height_three_cases():
    assert abelian_height(3, 3) == 1
    assert abelian_height(3, 2) == 2
    assert abelian_height(3, 1) == INFINITE
    assert abelian_height(3, 0) == INFINITE
    with pytest.raises(InputError):
        abelian_height(1, 1)
    with pytest.raises(InputError):
        abelian_height(3, 4)
    with pytest.raises(InputError):
        abelian_height(3, -1)


def test_abelian_height_other_dimensions():
    for n, rank, height in [(2, 2, 1), (2, 1, 2), (2, 0, INFINITE),
                            (4, 4, 1), (4, 3, 2), (4, 0, INFINITE)]:
        assert abelian_height(n, rank) == height


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
    assert report["points"] == ec_count_points(11, 1, 3)


@pytest.mark.parametrize("p,a,b", [(7, 7, 8), (5, -10, -4), (11, 0, -10)])
def test_kummer_report_reads_the_standard_curve_after_reduction(p, a, b):
    # y^2 = x^3 + a x + b with (a, b) = (0, 1) mod p is the standard curve,
    # and its closed-form prediction applies
    assert kummer_report(p, a, b) == kummer_report(p)
    assert kummer_report(p, a, b)["agree"] is True


def test_kummer_example_agrees_with_fermat_cubic():
    # both the quotient threefold and the Fermat cubic curve see the same
    # ordinary/supersingular dichotomy for the j = 0 curve
    for p in _primes(5, 20000):
        quotient = kummer_report(p)["quotient_height"]
        cubic = height_fermat(p, 3, 1)
        if quotient != "inf":
            assert quotient == 1
            assert cubic == 1
        else:
            assert cubic == 2


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


def _unimodular(rng):
    """A random integer 2x2 matrix of determinant +-1, as rows, from
    elementary row operations."""
    rows = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 6)):
        i, k = rng.randrange(2), rng.randint(-4, 4)
        rows[i] = [x + k * y for x, y in zip(rows[i], rows[1 - i])]
        if rng.random() < 0.3:
            rows.reverse()
        if rng.random() < 0.3:
            rows[i] = [-x for x in rows[i]]
    return rows


def test_equal_modules_compare_equal_under_changes_of_generators():
    rng = random.Random(61)
    polys = [(1, 0, 1), (1, 1, 1), (4, 0, 1), (2, 1, 3)]
    for _ in range(300):
        den = rng.randint(1, 6)
        gens = [tuple(Fraction(rng.randint(-9, 9), den) for _ in range(2))
                for _ in range(2)]
        (u0, v0), (u1, v1) = gens
        if u0 * v1 == u1 * v0:
            continue
        moved = [(x * u0 + y * u1, x * v0 + y * v1)
                 for x, y in _unimodular(rng)]
        moved += [(x * u0 + y * u1, x * v0 + y * v1)
                  for x, y in ((rng.randint(-5, 5), rng.randint(-5, 5))
                               for _ in range(rng.randint(0, 3)))]
        rng.shuffle(moved)
        poly = rng.choice(polys)
        a = lattice_from_generators(poly, gens)
        b = lattice_from_generators(poly, moved)
        assert a == b, (gens, moved)
        assert hash(a) == hash(b)


def test_hnf_rows_match_elimination():
    rng = random.Random(67)
    deficient = 0
    for _ in range(3000):
        rows = []
        for _ in range(rng.randint(0, 5)):
            kind = rng.random()
            if kind < 0.1:
                rows.append((0, 0))
            elif kind < 0.2:
                rows.append((0, rng.randint(-30, 30)))
            elif kind < 0.3 and rows:
                k, (u, v) = rng.randint(-3, 3), rng.choice(rows)
                rows.append((k * u, k * v))
            else:
                rows.append((rng.randint(-30, 30), rng.randint(-30, 30)))
        try:
            want = hnf_rows_by_elimination(rows)
        except InputError:
            deficient += 1
            with pytest.raises(InputError, match="rank-2"):
                kummer._hnf_rows(rows)
            continue
        assert kummer._hnf_rows(rows) == want, rows
    assert 100 < deficient < 2900


def _corrupt_first_form(monkeypatch, corrupt):
    """kummer._hnf_rows returns corrupt(form) on its first call only, so
    _verify_same_span checks a wrong basis with the right elimination."""
    real, calls = kummer._hnf_rows, []

    def first_call_corrupted(rows):
        calls.append(rows)
        form = real(rows)
        return corrupt(form) if len(calls) == 1 else form

    monkeypatch.setattr(kummer, "_hnf_rows", first_call_corrupted)


@pytest.mark.parametrize("corrupt", [
    lambda form: ((2 * form[0][0], form[0][1]), form[1]),
    lambda form: (form[0], (0, 2 * form[1][1])),
], ids=["a-doubled", "c-doubled"])
def test_a_basis_that_misses_a_generator_is_an_internal_error(
        monkeypatch, corrupt):
    _corrupt_first_form(monkeypatch, corrupt)
    with pytest.raises(InternalCheckError, match="escapes"):
        lattice_from_generators((1, 0, 1), [(1, 0), (0, 1), (3, 5)])


def test_a_basis_the_generators_do_not_reach_is_an_internal_error(
        monkeypatch):
    _corrupt_first_form(monkeypatch, lambda form: ((1, 0), (0, 1)))
    with pytest.raises(InternalCheckError, match="not generated"):
        lattice_from_generators((1, 0, 1), [(2, 0), (2, 4), (0, 6)])
