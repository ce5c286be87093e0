"""Invariants of the Fermat hypersurface x_0^m + ... + x_{r+1}^m = 0 over GF(q).

The Frobenius eigenvalues on middle cohomology are Jacobi sums indexed
by exponent vectors (a_0, ..., a_{r+1}) with 0 < a_i < m summing to
0 mod m.  Everything downstream is assembled from that index set: the
Stickelberger exponent gives the P-adic valuation of each eigenvalue,
the valuations normalized by f are the Newton slopes, the slopes in
[0, 1) count the height of the formal group attached to H^r(X, O_X),
and the full eigenvalue product is the interesting factor of the zeta
function.  The Jacobi sum, its Stickelberger exponent and its Hodge
level are symmetric in all r + 2 components, so every invariant is read
off one walk over exponent multisets (exponent_multisets).  When
m = r + 2 the hypersurface is Calabi-Yau and the height is the invariant
the theorems here are about; everything is computed from first
principles so the closed-form predictions stay testable.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial, gcd

from .character_sums import Character, jacobi_sum_table
from .cyclotomic import CycInt, _schoolbook_product, modulus_squared
from .errors import BudgetError, InputError, InternalCheckError
from .finite_field import (DEFAULT_TABLE_BUDGET, build_field,
                           frobenius_subgroup, is_prime, order_mod, units_mod)
from .padic import PadicContext, default_precision, padic_valuation

DEFAULT_ALPHA_BUDGET = 10**6
DEFAULT_POINT_BUDGET = 10**8

AlphaVector = tuple[int, ...]


@dataclass(frozen=True)
class FermatParams:
    """Validated (p, m, r) with the derived field data f and q = p^f."""

    p: int
    m: int
    r: int
    f: int
    q: int

    @classmethod
    def create(cls, p: int, m: int, r: int) -> FermatParams:
        if not is_prime(p):
            raise InputError(f"p must be prime, got {p}")
        if m < 3:
            raise InputError(f"degree m must be >= 3, got {m}")
        if r < 1:
            raise InputError(f"dimension r must be >= 1, got {r}")
        f = order_mod(p, m)  # checks gcd(p, m) = 1
        return cls(p, m, r, f, p**f)

    @property
    def is_calabi_yau(self) -> bool:
        return self.m == self.r + 2


class HeightValue:
    """Height of a one-dimensional formal group: an integer >= 1 or infinity."""

    __slots__ = ("_value",)

    def __init__(self, value: int | None):
        self._value = value

    @classmethod
    def finite(cls, h: int) -> HeightValue:
        if h < 1:
            raise InputError(f"finite height must be >= 1, got {h}")
        return cls(h)

    @classmethod
    def infinite(cls) -> HeightValue:
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> int:
        if self._value is None:
            raise InputError("infinite height has no integer value")
        return self._value

    def __eq__(self, other) -> bool:
        return isinstance(other, HeightValue) and self._value == other._value

    def __hash__(self):
        return hash(("HeightValue", self._value))

    def __repr__(self) -> str:
        return f"HeightValue({self._value!r})"

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def json(self) -> int | str:
        return "inf" if self._value is None else self._value


INFINITE = HeightValue.infinite()


def alpha_count(m: int, r: int) -> int:
    """Closed form |{alpha}| = ((m-1)^(r+2) + (-1)^(r+2) (m-1)) / m."""
    sign = 1 if (r + 2) % 2 == 0 else -1
    total = (m - 1) ** (r + 2) + sign * (m - 1)
    if total % m:
        raise InternalCheckError("exponent-vector count is not integral")
    return total // m


def _check_shape(m: int, r: int) -> None:
    if m < 2:
        raise InputError(f"degree m must be >= 2, got {m}")
    if r < 1:
        raise InputError(f"dimension r must be >= 1, got {r}")


def _alpha_budget_check(m: int, r: int, budget: int) -> int:
    expected = alpha_count(m, r)
    if expected > budget:
        raise BudgetError(
            f"exponent-vector budget exceeded: |A| = {expected} > {budget}")
    return expected


def exponent_vectors(m: int, r: int, *,
                     budget: int = DEFAULT_ALPHA_BUDGET) -> list[AlphaVector]:
    """All (a_0, ..., a_{r+1}) with 0 < a_i < m and sum = 0 mod m, in
    lexicographic order."""
    _check_shape(m, r)
    expected = _alpha_budget_check(m, r, budget)
    out: list[AlphaVector] = []
    for head in product(range(1, m), repeat=r + 1):
        last = (-sum(head)) % m
        if last:
            out.append(head + (last,))
    if len(out) != expected:
        raise InternalCheckError("enumeration disagrees with closed form")
    return out


def exponent_multisets(m: int, r: int) -> dict[AlphaVector, int]:
    """Each S_{r+2}-orbit of exponent vectors once: its sorted vector
    mapped to the orbit size (r+2)!/prod(mult!), in walk order.

    The walk visits the C(m+r-1, r+1) sorted heads a_1 <= ... <= a_{r+1}
    and keeps a head when a_0 = -sum(head) mod m is at least a_{r+1}, so
    every multiset appears once, with a largest entry as a_0.  Callers
    bound the walk in their own unit before calling.
    """
    _check_shape(m, r)
    top = factorial(r + 2)
    out: dict[AlphaVector, int] = {}
    for head in combinations_with_replacement(range(1, m), r + 1):
        last = (-sum(head)) % m
        if last < head[-1]:  # also skips last = 0
            continue
        alpha = head + (last,)
        weight = top
        for mult in Counter(alpha).values():
            weight //= factorial(mult)
        out[alpha] = weight
    if sum(out.values()) != alpha_count(m, r):
        raise InternalCheckError("multiset weights disagree with closed form")
    return out


def stickelberger_exponent(alpha: AlphaVector, p: int, m: int) -> int:
    """sum over t in <p> of [sum_{j>=1} <t * a_j / m>].

    [x] and <x> are the integer and fractional parts; the component a_0
    is excluded from the inner sum.  This is ord_P of the Jacobi sum
    j(alpha) at the canonical prime P.  It is the per-vector definition;
    the library reads the same value off each multiset
    (_multiset_exponent), and tests compare the two.
    """
    total = 0
    for t in frobenius_subgroup(p, m):
        s = 0
        for a in alpha[1:]:
            s += (t * a) % m
        total += s // m
    return total


def _multiset_exponent(m: int, subgroup: tuple[int, ...]
                       ) -> Callable[[AlphaVector], int]:
    """The Stickelberger exponent summed over subgroup, as a function of
    an exponent vector's entries in any order.

    With w(a) = sum over t in subgroup of (t * a mod m), the exponent is
    sum_i w(a_i) / m - |subgroup|: every t * alpha sums to 0 mod m, so
    the division is exact.  The empty subgroup gives exponent 0.
    """
    w = [sum((t * a) % m for t in subgroup) for a in range(m)]
    f = len(subgroup)
    return lambda alpha: sum(w[a] for a in alpha) // m - f


def _slope_profile(m: int, r: int, subgroup: tuple[int, ...],
                   budget: int) -> tuple[Counter, list[int]]:
    """Histograms of the Stickelberger exponent (summed over subgroup, 0 if
    empty) and the Hodge level of all exponent vectors, in one pass.

    Both are symmetric functions of alpha: the exponent is
    sum_i w(a_i) / m - |subgroup| (_multiset_exponent) and the level
    sum_i a_i / m - 1, so each multiset stands for its whole orbit.  The
    budget bounds the heads the multiset walk visits.
    """
    _check_shape(m, r)
    work = comb(m + r - 1, r + 1)
    if work > budget:
        raise BudgetError(
            f"exponent-vector budget exceeded: {work} multisets > {budget}")
    exponent = _multiset_exponent(m, subgroup)
    exponents: Counter = Counter()
    hodge = [0] * (r + 1)
    for alpha, weight in exponent_multisets(m, r).items():
        exponents[exponent(alpha)] += weight
        hodge[sum(alpha) // m - 1] += weight
    return exponents, hodge


def slope_deficient_count(p: int, m: int, r: int, *,
                          budget: int = DEFAULT_ALPHA_BUDGET) -> int:
    """Number of exponent vectors whose Stickelberger exponent is below f.

    These index the Frobenius eigenvalues of slope in [0, 1), whose count
    is the formal-group height when it is positive.
    """
    return newton_slopes(p, m, r, budget=budget).deficient_count()


def height_fermat(p: int, m: int, r: int, *,
                  budget: int = DEFAULT_ALPHA_BUDGET) -> HeightValue:
    """Formal-group height of the degree-m Fermat variety of dimension r.

    Counts the slope-deficient eigenvalues; a count of zero means no
    slope falls in [0, 1), i.e. the additive formal group.  The formal
    group itself is attached to the Calabi-Yau case m = r + 2, but the
    count is well defined for any valid parameters.
    """
    count = slope_deficient_count(p, m, r, budget=budget)
    return HeightValue.finite(count) if count else INFINITE


def predicted_height(p: int, m: int, r: int) -> HeightValue | None:
    """Closed-form height prediction: 1 when p = 1 mod m, else infinite.

    Only stated for the Calabi-Yau case m = r + 2 with r >= 2; returns
    None when it does not apply.
    """
    if r < 2 or m != r + 2:
        return None
    return HeightValue.finite(1) if p % m == 1 else INFINITE


@dataclass(frozen=True)
class SlopeMultiset:
    """Newton slopes with multiplicity, as exact rationals over f."""

    entries: tuple[tuple[Fraction, int], ...]
    denominator: int

    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.entries)

    def as_dict(self) -> dict[Fraction, int]:
        return dict(self.entries)

    def deficient_count(self) -> int:
        """Multiplicity of the slopes in [0, 1)."""
        return sum(mult for slope, mult in self.entries if slope < 1)

    def reflected(self, r: int) -> SlopeMultiset:
        """The multiset with every slope s replaced by r - s."""
        flipped = sorted((r - s, mult) for s, mult in self.entries)
        return SlopeMultiset(tuple(flipped), self.denominator)


def _slopes(exponents: Counter, f: int, r: int) -> SlopeMultiset:
    entries = tuple(sorted((Fraction(exponent, f), mult)
                           for exponent, mult in exponents.items()))
    for slope, _ in entries:
        if not 0 <= slope <= r:
            raise InternalCheckError(f"slope {slope} outside [0, {r}]")
    return SlopeMultiset(entries, f)


def newton_slopes(p: int, m: int, r: int, *,
                  budget: int = DEFAULT_ALPHA_BUDGET) -> SlopeMultiset:
    """The eigenvalue slopes: Stickelberger exponents divided by f."""
    params = FermatParams.create(p, m, r)
    exponents, _ = _slope_profile(m, r, frobenius_subgroup(p, m), budget)
    return _slopes(exponents, params.f, r)


@dataclass(frozen=True)
class HodgeVector:
    """Primitive middle-cohomology Hodge numbers h[l] = h^(r-l, l)."""

    m: int
    r: int
    h: tuple[int, ...]


def hodge_numbers_fermat(m: int, r: int, *,
                         budget: int = DEFAULT_ALPHA_BUDGET) -> HodgeVector:
    """Griffiths-style count: alpha contributes to level sum(a_j)/m - 1."""
    return HodgeVector(m, r, tuple(_slope_profile(m, r, (), budget)[1]))


def fully_rigged_fermat(p: int, m: int, r: int) -> bool:
    """Whether -1 lies in the subgroup of (Z/m)^* generated by p.

    Equivalent to all even-degree etale cohomology being spanned by
    algebraic cycles for the degree-m Fermat variety of even dimension.
    """
    if r % 2:
        raise InputError(f"dimension r must be even, got {r}")
    if m < 4:
        raise InputError(f"degree m must be >= 4, got {m}")
    return m - 1 in frobenius_subgroup(p, m)


@dataclass(frozen=True)
class ArtinComparison:
    """The two supersingularity notions side by side."""

    additive_type: bool
    fully_rigged: bool


def artin_comparison(p: int, m: int, r: int, *,
                     budget: int = DEFAULT_ALPHA_BUDGET) -> ArtinComparison:
    """Compare height-infinity against the algebraic-cycle criterion.

    For r = 2 the two agree; in higher even dimension they provably can
    differ, which this record makes checkable prime by prime.
    """
    if r % 2:
        raise InputError(f"dimension r must be even, got {r}")
    if m != r + 2:
        raise InputError(
            f"comparison needs the Calabi-Yau case m = r + 2, got m={m}, r={r}")
    additive = not height_fermat(p, m, r, budget=budget).is_finite
    return ArtinComparison(additive, fully_rigged_fermat(p, m, r))


def variety_report(p: int, m: int, r: int, *,
                   budget: int = DEFAULT_ALPHA_BUDGET) -> dict:
    """One JSON-ready record of the slope-level invariants and the height
    prediction, all read off one weighted pass over exponent multisets.

    Timings are deliberately absent so identical inputs serialize
    identically."""
    params = FermatParams.create(p, m, r)
    exponents, hodge = _slope_profile(m, r, frobenius_subgroup(p, m), budget)
    slopes = _slopes(exponents, params.f, r)
    count = slopes.deficient_count()
    height = HeightValue.finite(count) if count else INFINITE
    predicted = predicted_height(p, m, r)
    rigged = None
    if r % 2 == 0 and m >= 4:
        rigged = fully_rigged_fermat(p, m, r)
    return {
        "p": params.p, "m": params.m, "r": params.r,
        "f": params.f, "q": params.q,
        "height": height.json(),
        "slope_deficient_count": count,
        "predicted_height": None if predicted is None else predicted.json(),
        "agree": None if predicted is None else height == predicted,
        "slopes": [[str(slope), mult] for slope, mult in slopes.entries],
        "alpha_count": alpha_count(m, r),
        "hodge": hodge,
        "fully_rigged": rigged,
    }


# --- zeta functions and point counts ---


@dataclass(frozen=True)
class ZetaData:
    """Z(T) = P(T)^sign_exponent / prod_i (1 - q^i T), i = 0..r."""

    p: int
    m: int
    r: int
    q: int
    poly_coeffs: tuple[int, ...]  # P(T), constant term first
    pole_q_powers: tuple[int, ...]
    sign_exponent: int

    @property
    def degree(self) -> int:
        return len(self.poly_coeffs) - 1


def _checked_jacobi_sums(params: FermatParams, alpha_budget: int,
                         table_budget: int):
    """The field, the exponent multisets with their orbit sizes, and the
    Jacobi sum of every multiset, with |j|^2 = q^r checked once per
    distinct value.  The budget bounds |A|, the degree of P(T) and the
    number of Stickelberger rows.
    """
    _alpha_budget_check(params.m, params.r, alpha_budget)
    field = build_field(params.p, params.f, table_budget=table_budget)
    weights = exponent_multisets(params.m, params.r)
    sums = jacobi_sum_table(Character(field, params.m), weights)
    q_to_r = CycInt.integer(params.m, params.q**params.r)
    for j in set(sums.values()):
        if modulus_squared(j) != q_to_r:
            raise InternalCheckError(
                f"|j|^2 != q^r for j = {j!r}; eigenvalue check failed")
    return field, weights, sums


def zeta_fermat(p: int, m: int, r: int, *,
                alpha_budget: int = DEFAULT_ALPHA_BUDGET,
                table_budget: int = DEFAULT_TABLE_BUDGET) -> ZetaData:
    """P(T) = prod (1 - j(alpha) T), assembled from the distinct eigenvalues.

    j(t alpha) = sigma_t(j(alpha)), so the eigenvalue multiset is stable
    under (Z/m)^*.  Each Galois orbit of distinct eigenvalues contributes
    its norm polynomial N_i(T) = prod_{beta in orbit} (1 - beta T) to the
    power e_i, its multiplicity, and P = prod N_i^e_i is expanded over Z.
    Hard checks: |j|^2 = q^r for every distinct eigenvalue, one
    multiplicity along each orbit, norm polynomials in Z[T], exact
    division in the expansion and deg P = |A|.
    """
    params = FermatParams.create(p, m, r)
    _, weights, sums = _checked_jacobi_sums(params, alpha_budget, table_budget)
    multiplicity: Counter = Counter()
    for alpha, weight in weights.items():
        multiplicity[sums[alpha]] += weight

    units = units_mod(m)
    factors: list[tuple[list[int], int]] = []
    seen: set[CycInt] = set()
    for j, mult in multiplicity.items():
        if j in seen:
            continue
        orbit = {j.galois(t) for t in units}
        if any(multiplicity[beta] != mult for beta in orbit):
            raise InternalCheckError(
                f"eigenvalue multiplicities differ along the Galois orbit "
                f"of {j!r}")
        seen |= orbit
        factors.append((_norm_polynomial(orbit, m), mult))
    coeffs = _expand_power_product(factors, alpha_count(m, r))
    return ZetaData(p, m, r, params.q, coeffs,
                    tuple(range(r + 1)), 1 if (r - 1) % 2 == 0 else -1)


def _norm_polynomial(orbit, m: int) -> list[int]:
    """prod over the orbit of (1 - beta T), which must lie in Z[T]."""
    coeffs = [CycInt.one(m)]
    for beta in orbit:
        coeffs.append(CycInt.zero(m))
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] = coeffs[i] - beta * coeffs[i - 1]
    for i, c in enumerate(coeffs):
        if not c.is_rational_integer():
            raise InternalCheckError(
                f"coefficient of T^{i} in a Galois-orbit norm is not a "
                f"rational integer: {c!r}")
    return [c.as_rational_integer() for c in coeffs]


def _expand_power_product(factors: list[tuple[list[int], int]],
                          degree: int) -> tuple[int, ...]:
    """prod N_i^e_i for integer polynomials with N_i(0) = 1.

    P'/P = E/D with D = prod N_i and E = sum e_i N_i' D / N_i, so
    D P' = P E; its T^(k-1) coefficient gives
    k P_k = sum_{i=1..deg D} (E_{i-1} - (k - i) D_i) P_{k-i},
    O(deg D) integer operations per coefficient.  The division by k must
    be exact and deg P must equal the expected degree.
    """
    total = sum(mult * (len(norm) - 1) for norm, mult in factors)
    if total != degree:
        raise InternalCheckError(
            f"orbit factors have degree {total}, expected {degree}")
    d = [1]
    for norm, _ in factors:
        d = _schoolbook_product(d, norm)
    width = len(d) - 1
    e = [0] * width
    for i, (norm, mult) in enumerate(factors):
        term = [k * c for k, c in enumerate(norm)][1:]
        for j, (other, _) in enumerate(factors):
            if j != i:
                term = _schoolbook_product(term, other)
        for k, c in enumerate(term):
            e[k] += mult * c
    coeffs = [1]
    for k in range(1, total + 1):
        acc = 0
        for i in range(1, min(width, k) + 1):
            acc += (e[i - 1] - (k - i) * d[i]) * coeffs[k - i]
        quotient, remainder = divmod(acc, k)
        if remainder:
            raise InternalCheckError(
                f"coefficient of T^{k} is not an integer in the expansion")
        coeffs.append(quotient)
    return tuple(coeffs)


def eigenvalue_power_sums(poly_coeffs: tuple[int, ...], s: int) -> list[int]:
    """Power sums pi_1..pi_s of the inverse roots of P(T), by Newton's
    identities."""
    deg = len(poly_coeffs) - 1
    pi: list[int] = []
    for n in range(1, s + 1):
        acc = n * poly_coeffs[n] if n <= deg else 0
        for i in range(1, min(n, deg + 1)):
            acc += poly_coeffs[i] * pi[n - i - 1]
        pi.append(-acc)
    return pi


def point_count_from_zeta(z: ZetaData, s: int) -> int:
    """N_s = sum_i q^(i s) + (-1)^r sum_alpha j(alpha)^s, all exact."""
    if s < 1:
        raise InputError(f"s must be >= 1, got {s}")
    pi_s = eigenvalue_power_sums(z.poly_coeffs, s)[-1]
    total = sum(z.q ** (i * s) for i in range(z.r + 1))
    total += pi_s if z.r % 2 == 0 else -pi_s
    if total < 0:
        raise InternalCheckError(f"negative point count N_{s} = {total}")
    return total


def brute_force_point_count(p: int, m: int, r: int, s: int, *,
                            budget: int = DEFAULT_POINT_BUDGET,
                            table_budget: int = DEFAULT_TABLE_BUDGET) -> int:
    """Projective solutions of sum x_i^m = 0 over GF(Q), Q = q^s, counted
    from field arithmetic alone: no characters, no Jacobi sums.

    h(y) = #{x : x^m = y} is 1 at 0 and d = gcd(m, Q - 1) on the nonzero
    m-th powers, and the affine solution count is the value at 0 of h
    convolved with itself r + 1 times.  Every partial convolution is
    invariant under scaling by nonzero m-th powers, so it is held as its
    value at 0 plus one value per coset of those powers.  A convolution
    step evaluates these d + 1 values, each over the (Q - 1)/d nonzero
    m-th powers; the budget bounds the (r + 1)(d + 1)(Q - 1)/d field
    subtractions this takes.
    """
    if s < 1:
        raise InputError(f"s must be >= 1, got {s}")
    params = FermatParams.create(p, m, r)
    big_q = params.q**s
    d = gcd(m, big_q - 1)
    work = (r + 1) * (d + 1) * ((big_q - 1) // d)
    if work > budget:
        raise BudgetError(
            f"point-count budget exceeded: {work} field subtractions "
            f"> {budget}")
    field = build_field(p, params.f * s, table_budget=table_budget)
    sub = field.sub
    powers, representatives = [], [0]
    slot = [0] * big_q  # 0 for zero, 1 + c for the coset of g^c
    for k, x in enumerate(field.powers()):
        slot[x] = 1 + k % d
        if k % d == 0:
            powers.append(x)
        if k < d:
            representatives.append(x)

    conv = [1, d] + [0] * (d - 1)  # h itself
    for _ in range(r + 1):
        conv = [conv[i] + d * sum(conv[slot[sub(y, z)]] for z in powers)
                for i, y in enumerate(representatives)]
    projective, remainder = divmod(conv[0] - 1, big_q - 1)
    if remainder:
        raise InternalCheckError(
            f"affine solution count {conv[0]} is not 1 mod Q - 1")
    return projective


def zeta_report(p: int, m: int, r: int, checks: Iterable[int] = (), *,
                alpha_budget: int = DEFAULT_ALPHA_BUDGET,
                table_budget: int = DEFAULT_TABLE_BUDGET,
                point_budget: int = DEFAULT_POINT_BUDGET) -> dict:
    """One JSON-ready record of Z(T) and its cross-checks: for each s in
    checks, N_s read off P(T) against brute_force_point_count, which
    shares no characters or Jacobi sums with zeta_fermat.  all_match is
    the verdict (True when checks is empty)."""
    zeta = zeta_fermat(p, m, r, alpha_budget=alpha_budget,
                       table_budget=table_budget)
    rows = []
    for s in checks:
        n_zeta = point_count_from_zeta(zeta, s)
        n_brute = brute_force_point_count(p, m, r, s, budget=point_budget,
                                          table_budget=table_budget)
        rows.append({"s": s, "zeta_count": n_zeta,
                     "brute_force_count": n_brute,
                     "match": n_zeta == n_brute})
    return {
        "p": zeta.p, "m": zeta.m, "r": zeta.r, "q": zeta.q,
        "degree": zeta.degree,
        "poly_coeffs": list(zeta.poly_coeffs),
        "sign_exponent": zeta.sign_exponent,
        "pole_q_powers": list(zeta.pole_q_powers),
        "checks": rows,
        "all_match": all(row["match"] for row in rows),
    }


# --- the Stickelberger cross-check ---


def stickelberger_check(p: int, m: int, r: int, *,
                        alpha_budget: int = DEFAULT_ALPHA_BUDGET,
                        table_budget: int = DEFAULT_TABLE_BUDGET) -> dict:
    """One JSON-ready record of ord_P(j(alpha)) against the Stickelberger
    exponent, a row per exponent vector in the order of exponent_vectors,
    with the verdict all_equal (error and precision_failures stay None
    and 0: every valuation is exact or the call raises).

    Both sides are symmetric in alpha and computed once per multiset:
    the left side from the Jacobi sum through the lifted root of unity,
    the right side from integer arithmetic alone (_multiset_exponent; it
    equals stickelberger_exponent on every vector).  The two share
    nothing but the field construction.  Every distinct Jacobi sum must
    satisfy |j|^2 = q^r first, so a table fault that breaks it is an
    internal error rather than a mismatch.  That check also bounds
    ord_P(j) by ord_P(q^r) = f*r, below the working precision f*r + 2, so
    every valuation is exact or the table is at fault.
    """
    params = FermatParams.create(p, m, r)
    field, weights, sums = _checked_jacobi_sums(params, alpha_budget,
                                                table_budget)
    ctx = PadicContext(field, m, default_precision(params.f, r))
    exponent = _multiset_exponent(m, frobenius_subgroup(p, m))
    by_key, equal_count = {}, 0
    for key, j in sums.items():
        val = padic_valuation(j, ctx)
        if not val.exact:
            raise InternalCheckError(
                f"ord_P(j) >= {ctx.k} for alpha = {key}, above f*r = "
                f"{params.f * r}")
        exp = exponent(key)
        by_key[key] = {"exponent": exp, "valuation": val.value,
                       "equal": exp == val.value, "error": None}
        equal_count += weights[key] * (exp == val.value)
    rows = [{"alpha": list(alpha), **by_key[tuple(sorted(alpha))]}
            for alpha in exponent_vectors(m, r, budget=alpha_budget)]
    return {
        "p": params.p, "m": params.m, "r": params.r, "f": params.f,
        "q": params.q, "total": len(rows), "equal_count": equal_count,
        "all_equal": equal_count == len(rows), "precision_failures": 0,
        "rows": rows,
    }
