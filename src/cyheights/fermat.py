"""Invariants of the Fermat hypersurface x_0^m + ... + x_{r+1}^m = 0 over GF(q).

The Frobenius eigenvalues on middle cohomology are Jacobi sums indexed
by exponent vectors (a_0, ..., a_{r+1}) with 0 < a_i < m summing to
0 mod m.  Everything downstream is assembled from that index set: the
Stickelberger exponent gives the P-adic valuation of each eigenvalue,
the valuations normalized by f are the Newton slopes, the slopes in
[0, 1) count the height of the formal group attached to H^r(X, O_X),
and the full eigenvalue product is the interesting factor of the zeta
function.  The Jacobi sum, its Stickelberger exponent and its Hodge
level are symmetric in all r + 2 components, so the zeta function and
the Stickelberger rows are read off one walk over exponent multisets
(exponent_multisets).  The exponent and the level are sums of one term
per component, so the slope invariants come from a dynamic program over
two running sums, a big integer per step with one digit per state in g
lanes (_exponent_histogram), at a cost polynomial in m and r.  The
slopes depend on p only through <p> in (Z/m)^*, which FermatParams
builds once, after the budget admits (m, r).  Results are plain values.
When m = r + 2 the hypersurface is Calabi-Yau and the height is the
invariant the theorems here are about; everything is computed from
first principles so the closed-form predictions stay testable.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, gcd
from operator import add

from .character_sums import Character, jacobi_sum_table
from .cyclotomic import CycInt, _schoolbook_product, modulus_squared
from .errors import InputError, InternalCheckError, check_budget
from .finite_field import (DEFAULT_TABLE_BUDGET, _check_sieve, _least_prime,
                           _primes_in, build_field, frobenius_subgroup,
                           is_prime)
from .padic import PadicContext, default_precision, padic_valuation

DEFAULT_ALPHA_BUDGET = 10**6
DEFAULT_POINT_BUDGET = 10**8

AlphaVector = tuple[int, ...]
Slopes = tuple[tuple[Fraction, int], ...]


@dataclass(frozen=True)
class FermatParams:
    """Validated (p, m, r) with <p> in (Z/m)^*, its order f and q = p^f."""

    p: int
    m: int
    r: int
    subgroup: tuple[int, ...]
    q: int

    @classmethod
    def create(cls, p: int, m: int, r: int) -> FermatParams:
        if not is_prime(p):
            raise InputError(f"p must be prime, got {p}")
        if m < 3:
            raise InputError(f"degree m must be >= 3, got {m}")
        if r < 1:
            raise InputError(f"dimension r must be >= 1, got {r}")
        subgroup = frobenius_subgroup(p, m)  # checks gcd(p, m) = 1
        return cls(p, m, r, subgroup, p ** len(subgroup))

    @property
    def f(self) -> int:
        return len(self.subgroup)


# A height is an int >= 1, or INFINITE for the additive formal group.
INFINITE = "inf"


def alpha_count(m: int, r: int) -> int:
    """Closed form |{alpha}| = ((m-1)^(r+2) + (-1)^(r+2) (m-1)) / m."""
    _check_shape(m, r)
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
    """Validates (m, r) and returns |A| if the budget admits it."""
    _check_shape(m, r)
    # m |A| >= (m-1)^(r+2) - m, and (m-1)^(r+2) >= 2^((r+2)(bits(m-1)-1))
    big = (r + 2) * ((m - 1).bit_length() - 1) > (2 * m * budget).bit_length()
    count = None if big else alpha_count(m, r)
    check_budget(count, budget, "exponent-vector budget exceeded: |A| = {}")
    return count


def _slope_budget_check(m: int, r: int, budget: int) -> None:
    """Validates (m, r) and refuses a slope pass whose (r + 2)(m - 1)
    alone exceeds the budget: that product is at most the transition
    bound of any pass (_transition_bound; at least m - 1 states stand
    after each step) and needs no <p>, so callers run this before
    FermatParams.create."""
    _check_shape(m, r)
    if (r + 2) * (m - 1) > budget:
        check_budget(None, budget, _SLOPE_BUDGET)


def exponent_vectors(m: int, r: int, *,
                     budget: int = DEFAULT_ALPHA_BUDGET) -> list[AlphaVector]:
    """All (a_0, ..., a_{r+1}) with 0 < a_i < m and sum = 0 mod m, in
    lexicographic order."""
    return _vector_walk(m, r, budget)[0]


def _multiset_weights(m: int, r: int) -> list[int]:
    """w[a] = 2^(b*a), b the bit length of r + 2, so that sum(w[a] for a
    in alpha) counts each entry of alpha in a b-bit digit of its own: one
    integer key per multiset, the same for every ordering."""
    b = (r + 2).bit_length()
    return [1 << b * a for a in range(m)]


def _vector_walk(m: int, r: int,
                 budget: int) -> tuple[list[AlphaVector], list[int]]:
    """exponent_vectors with the multiset key of each vector
    (_multiset_weights), from one walk over the prefixes (a_0, ...,
    a_{r-1}).  With c = -sum(prefix) mod m, a_r runs over 1..m-1 except c,
    and a_{r+1} = c - a_r mod m falls from c - 1 to 1, then from m - 1
    to c + 1, so a prefix and its key extend to all their vectors and
    keys in C (zip and map), with no Python step per vector."""
    expected = _alpha_budget_check(m, r, budget)
    w = _multiset_weights(m, r)
    vectors: list[AlphaVector] = []
    keys: list[int] = []
    for prefix in product(range(1, m), repeat=r):
        c = -sum(prefix) % m
        heads = [*range(1, c), *range(c + 1, m)]
        lasts = [*range(c - 1, 0, -1), *range(m - 1, c, -1)]
        vectors += map(prefix.__add__, zip(heads, lasts))
        keys += map(sum(map(w.__getitem__, prefix)).__add__,
                    map(add, map(w.__getitem__, heads),
                        map(w.__getitem__, lasts)))
    if len(vectors) != expected:
        raise InternalCheckError("enumeration disagrees with closed form")
    return vectors, keys


def exponent_multisets(m: int, r: int) -> dict[AlphaVector, int]:
    """Each S_{r+2}-orbit of exponent vectors once: its sorted vector
    mapped to the orbit size (r+2)!/prod(mult!), in walk order.

    The walk visits the C(m+r-1, r+1) sorted heads a_1 <= ... <= a_{r+1}
    and keeps a head when a_0 = -sum(head) mod m is at least a_{r+1}, so
    every multiset appears once, with a largest entry as a_0.  The vector
    is sorted, so the k-th entry of a run of equal entries divides the
    weight by k.  Callers bound the walk in their own unit before calling.
    """
    _check_shape(m, r)
    top = factorial(r + 2)
    out: dict[AlphaVector, int] = {}
    for head in combinations_with_replacement(range(1, m), r + 1):
        last = (-sum(head)) % m
        if last < head[-1]:  # also skips last = 0
            continue
        alpha = head + (last,)
        weight, run, previous = top, 0, 0
        for a in alpha:
            if a == previous:
                run += 1
                weight //= run
            else:
                run, previous = 1, a
        out[alpha] = weight
    if sum(out.values()) != alpha_count(m, r):
        raise InternalCheckError("multiset weights disagree with closed form")
    return out


def _weights(m: int, subgroup: tuple[int, ...]) -> list[int]:
    """w(a) = sum over t in subgroup of (t * a mod m), for a = 0..m-1: one
    sum per orbit {t a}, on which w is constant, O(m + f * orbits) in all."""
    w: dict[int, int] = {}
    for a in range(1, m):
        if a not in w:  # else summed with its orbit
            orbit = [t * a % m for t in subgroup]
            w.update(dict.fromkeys(orbit, sum(orbit)))
    return [w.get(a, 0) for a in range(m)]


def _multiset_exponent(m: int, subgroup: tuple[int, ...]
                       ) -> Callable[[AlphaVector], int]:
    """The Stickelberger exponent, sum over t in subgroup of
    [sum_{j>=1} <t * a_j / m>] ([x], <x> the integer and fractional
    parts; ord_P of j(alpha) when subgroup is <p>), as a function of an
    exponent vector's entries in any order.

    The exponent is sum_i w(a_i) / m - |subgroup| (_weights): every
    t * alpha sums to 0 mod m, so the division is exact and a_0 drops
    out.  The empty subgroup gives exponent 0.  The tests check it
    against the per-vector definition.
    """
    w = _weights(m, subgroup)
    f = len(subgroup)
    return lambda alpha: sum(map(w.__getitem__, alpha)) // m - f


# The Hodge level sum_i a_i / m - 1 is the exponent over the subgroup {1}.
_LEVELS = (1,)
_SLOPE_BUDGET = "exponent-vector budget exceeded: {} DP transitions"


def _transition_bound(m: int, r: int, subgroup: tuple[int, ...],
                      budget: int) -> int | None:
    """The transitions _exponent_histogram(m, r, subgroup) makes at most as
    a DP over states, or None once that exceeds the budget: the slope
    budget's unit, though the passes make each step's in bulk.

    w(a) = c a mod m for c the sum of subgroup, so a state's sum w fixes
    its sum a up to g = gcd(c, m) values mod m.  The w(a), a = 1..m-1,
    step by d, the gcd of the differences w(a) - w(1) (1 when all are 0),
    so after k steps sum w takes at most k spread / d + 1 values, spread
    being max w - min w, and at most min(g (k spread / d + 1), (m-1)^k)
    states stand; each makes m - 1 transitions in the first r + 1 steps
    and one in the closing step.
    """
    w = _weights(m, subgroup)[1:]
    step = gcd(*(wa - w[0] for wa in w)) or 1
    spread = (max(w) - min(w)) // step
    per_value = gcd(sum(subgroup), m)
    total, reach = 0, 1
    for k in range(r + 1):
        total += reach * (m - 1)
        if total > budget:
            return None
        reach = min(reach * (m - 1), per_value * ((k + 1) * spread + 1))
    total += reach
    return None if total > budget else total


def _exponent_histogram(m: int, r: int, subgroup: tuple[int, ...]
                        ) -> Counter:
    """The Stickelberger exponent over subgroup (_multiset_exponent) of
    every exponent vector, as a histogram.  r + 2 steps add an entry
    1..m-1 to the states (s, W) = (sum a_i mod m, sum w(a_i)); the
    vectors end at s = 0.  A state counts in digit j L + u of one integer
    for W = k lo + u d (lo the least w(a), d the step of w) and lane
    j = (s - c' W / g) / n mod g, n = m / g, c' c / g = 1 mod n (c, g as in
    _transition_bound).  Entry a moves every state J(a) lanes and u by
    (w(a) - lo) / d: a step sums shifted copies and folds lanes >= g back."""
    w, f, g = _weights(m, subgroup), len(subgroup), gcd(sum(subgroup), m)
    lo, step = min(w[1:]), gcd(*(wa - w[1] for wa in w[1:])) or 1
    n, inverse = m // g, pow(sum(subgroup) // g, -1, m // g)
    span = (r + 2) * (max(w[1:]) - lo) // step + 1  # L, digits per lane
    width = ((m - 1)**(r + 2)).bit_length()  # no digit exceeds (m-1)^(r+2)
    shifts = [width * ((a - inverse * w[a] // g) % m // n * span
                       + (w[a] - lo) // step) for a in range(1, m)]
    top = width * span * g
    state, lanes = 1, (1 << top) - 1
    for _ in range(r + 2):
        acc = 0
        for shift in shifts:
            acc += state << shift
        state = (acc & lanes) + (acc >> top)
    exponents, digit = Counter(), (1 << width) - 1
    for u in range(span):
        total = (r + 2) * lo + u * step
        if total % m == 0:
            at = width * ((-inverse * total // g) % m // n * span + u)
            exponents[total // m - f] = state >> at & digit
    return +exponents  # without the zero counts


def _histograms(m: int, r: int, subgroups: tuple[tuple[int, ...], ...],
                budget: int, passes: dict) -> list[Counter]:
    """Each subgroup's _exponent_histogram, from passes, which maps each
    subgroup as a set (<p> = {1} is _LEVELS) to its one pass and gains the
    passes it lacks.  The budget bounds the transitions of every histogram
    asked for, before any pass runs, and each new pass must count
    alpha_count(m, r) vectors.  Callers run _slope_budget_check first."""
    total = 0
    for subgroup in subgroups:
        bound = _transition_bound(m, r, subgroup, budget - total)
        check_budget(bound, budget, _SLOPE_BUDGET)
        total += bound
    keys = [frozenset(subgroup) for subgroup in subgroups]
    for key, subgroup in zip(keys, subgroups):
        if key not in passes:
            passes[key] = _exponent_histogram(m, r, subgroup)
            if sum(passes[key].values()) != alpha_count(m, r):
                raise InternalCheckError(
                    "slope histograms disagree with closed form")
    return [passes[key] for key in keys]


def _height(slopes: Slopes) -> tuple[int, int | str]:
    """The number of slopes in [0, 1) and the height: that count, or
    INFINITE (the additive formal group) when it is 0."""
    count = sum(mult for slope, mult in slopes if slope < 1)
    return count, count or INFINITE


def height_fermat(p: int, m: int, r: int, *,
                  budget: int = DEFAULT_ALPHA_BUDGET) -> int | str:
    """Formal-group height of the degree-m Fermat variety of dimension r:
    an int >= 1, or INFINITE.

    Counts the slope-deficient eigenvalues (_height).  The formal group
    itself is attached to the Calabi-Yau case m = r + 2, but the count is
    well defined for any valid parameters.
    """
    return _height(newton_slopes(p, m, r, budget=budget))[1]


def predicted_height(p: int, m: int, r: int) -> int | str | None:
    """Closed-form height prediction: 1 when p = 1 mod m, else INFINITE.

    Only stated for the Calabi-Yau case m = r + 2 with r >= 2; returns
    None when it does not apply.
    """
    if r < 2 or m != r + 2:
        return None
    return 1 if p % m == 1 else INFINITE


def _slopes(exponents: Counter, f: int, r: int) -> Slopes:
    entries = tuple(sorted((Fraction(exponent, f), mult)
                           for exponent, mult in exponents.items()))
    for slope, _ in entries:
        if not 0 <= slope <= r:
            raise InternalCheckError(f"slope {slope} outside [0, {r}]")
    return entries


def newton_slopes(p: int, m: int, r: int, *,
                  budget: int = DEFAULT_ALPHA_BUDGET) -> Slopes:
    """The eigenvalue slopes, Stickelberger exponents over f, as sorted
    (Fraction, multiplicity) pairs; the budget bounds the transitions of
    the exponent pass."""
    _slope_budget_check(m, r, budget)
    params = FermatParams.create(p, m, r)
    exponents, = _histograms(m, r, (params.subgroup,), budget, {})
    return _slopes(exponents, params.f, r)


def hodge_numbers_fermat(m: int, r: int, *,
                         budget: int = DEFAULT_ALPHA_BUDGET
                         ) -> tuple[int, ...]:
    """Primitive Hodge numbers (h^(r,0), ..., h^(0,r)) of middle cohomology
    by the Griffiths-style count: alpha has level sum(a_j)/m - 1.  The
    budget bounds the transitions of the level pass."""
    _slope_budget_check(m, r, budget)
    levels, = _histograms(m, r, (_LEVELS,), budget, {})
    return tuple(levels[k] for k in range(r + 1))


def _fully_rigged(m: int, subgroup: tuple[int, ...]) -> bool:
    """Whether -1 lies in <p>, given as subgroup of (Z/m)^*.

    Equivalent to all even-degree etale cohomology being spanned by
    algebraic cycles for the degree-m Fermat variety of even dimension.
    """
    return m - 1 in subgroup


def fully_rigged_fermat(p: int, m: int, r: int) -> bool:
    """Whether -1 lies in the subgroup of (Z/m)^* generated by p
    (_fully_rigged), for prime p, even r and m >= 4."""
    if r % 2:
        raise InputError(f"dimension r must be even, got {r}")
    if m < 4:
        raise InputError(f"degree m must be >= 4, got {m}")
    return _fully_rigged(m, FermatParams.create(p, m, r).subgroup)


def artin_comparison(p: int, m: int, r: int, *,
                     budget: int = DEFAULT_ALPHA_BUDGET) -> dict:
    """Compare height-infinity against the algebraic-cycle criterion: the
    record {"additive_type", "fully_rigged"}, read off variety_report.

    For r = 2 the two agree; in higher even dimension they provably can
    differ, which this record makes checkable prime by prime.
    """
    _artin_shape(m, r)
    return _artin(variety_report(p, m, r, budget=budget))


def _artin_shape(m: int, r: int) -> None:
    if r % 2 or m != r + 2:
        raise InputError("comparison needs even r and the Calabi-Yau case "
                         f"m = r + 2, got m={m}, r={r}")


def _artin(report: dict) -> dict:  # artin_comparison's record
    return {"additive_type": report["height"] == INFINITE,
            "fully_rigged": report["fully_rigged"]}


def _check_slopes(exponents: Counter, f: int, hodge: list[int],
                  cy_height: int | str | None) -> None:
    """Hard checks, in integers, on the slopes e / f of an exponent
    histogram, each O(distinct slopes + r): symmetry under s -> r - s
    (functional equation); the Newton polygon on or above the Hodge
    polygon with the same end points (Mazur); and a finite Calabi-Yau
    height (cy_height, None when m != r + 2) at most h^(r-1,1) + 1."""
    r = len(hodge) - 1
    if any(exponents.get(f * r - e) != n for e, n in exponents.items()):
        raise InternalCheckError("Newton slopes are not symmetric under "
                                 "s -> r - s")
    # Between two Newton vertices the Newton polygon is linear and the
    # Hodge polygon convex, so checking the Newton vertices suffices.
    x, y = 0, 0  # y is f times the Newton polygon
    level, hodge_x, hodge_y = 0, 0, 0  # Hodge vertex at or before x
    for e, n in sorted(exponents.items()):
        x, y = x + n, y + e * n
        while level <= r and hodge_x + hodge[level] <= x:
            hodge_x += hodge[level]
            hodge_y += level * hodge[level]
            level += 1
        if y < f * (hodge_y + level * (x - hodge_x)):
            raise InternalCheckError(f"Newton polygon below the Hodge "
                                     f"polygon at x = {x}")
    if (x, y) != (sum(hodge), f * sum(k * h for k, h in enumerate(hodge))):
        raise InternalCheckError("Newton and Hodge polygons end apart")
    if cy_height not in (None, INFINITE) and cy_height > hodge[1] + 1:
        raise InternalCheckError(f"height {cy_height} exceeds "
                                 f"h^(r-1,1) + 1 = {hodge[1] + 1}")


def variety_report(p: int, m: int, r: int, *,
                   budget: int = DEFAULT_ALPHA_BUDGET) -> dict:
    """One JSON-ready record of the slope-level invariants and the height
    prediction, all read off the exponent and level histograms
    (_histograms) of one <p>, after the hard checks of _check_slopes.
    Timings are absent so identical inputs serialize identically.
    """
    _slope_budget_check(m, r, budget)
    return _report(FermatParams.create(p, m, r), budget, {})


def variety_survey(m: int, r: int, p_min: int, p_max: int, *,
                   budget: int = DEFAULT_ALPHA_BUDGET
                   ) -> tuple[list[int], dict[int, dict]]:
    """The primes of [p_min, p_max) prime to m, and for each residue class
    mod m that holds one, the variety_report of its least prime, from
    one level pass and one exponent pass per distinct <p>, each class
    admitted as variety_report would admit it.  The least prime of the
    window, found by an is_prime walk, is reported before the sieve
    proves the others, so an error of (m, r) or the budget raises first.
    """
    _check_sieve(p_min, p_max)
    first = _least_prime(p_min, p_max, m)
    if first is None:
        raise InputError("empty prime range")
    _slope_budget_check(m, r, budget)
    passes: dict = {}
    reports = {first % m: _report(FermatParams.create(first, m, r), budget,
                                  passes)}
    primes = [first] + [p for p in _primes_in(first + 1, p_max)
                        if gcd(p, m) == 1]
    for p in primes:
        if p % m not in reports:
            subgroup = frobenius_subgroup(p, m)  # the sieve proved p prime
            reports[p % m] = _report(FermatParams(
                p, m, r, subgroup, p ** len(subgroup)), budget, passes)
    return primes, reports


def artin_survey(m: int, r: int, p_min: int, p_max: int, *,
                 budget: int = DEFAULT_ALPHA_BUDGET
                 ) -> tuple[list[int], dict[int, dict]]:
    """variety_survey with artin_comparison's record for each class, the
    shape of (m, r) checked after the sieve's budget."""
    _check_sieve(p_min, p_max)
    _artin_shape(m, r)
    primes, reports = variety_survey(m, r, p_min, p_max, budget=budget)
    return primes, {c: _artin(report) for c, report in reports.items()}


def _report(params: FermatParams, budget: int, passes: dict) -> dict:
    """variety_report's record, its histograms from passes (_histograms)."""
    p, m, r = params.p, params.m, params.r
    exponents, levels = _histograms(m, r, (params.subgroup, _LEVELS), budget,
                                    passes)
    hodge = [levels[k] for k in range(r + 1)]
    slopes = _slopes(exponents, params.f, r)
    count, height = _height(slopes)
    _check_slopes(exponents, params.f, hodge, height if m == r + 2 else None)
    predicted = predicted_height(p, m, r)
    rigged = None
    if r % 2 == 0 and m >= 4:
        rigged = _fully_rigged(m, params.subgroup)
    return {
        "p": params.p, "m": params.m, "r": params.r,
        "f": params.f, "q": params.q,
        "height": height,
        "slope_deficient_count": count,
        "predicted_height": predicted,
        "agree": None if predicted is None else height == predicted,
        "slopes": [[str(slope), mult] for slope, mult in slopes],
        "alpha_count": alpha_count(m, r),
        "hodge": hodge,
        "fully_rigged": rigged,
    }


# --- zeta functions and point counts ---


def _checked_jacobi_sums(params: FermatParams, table_budget: int):
    """The field, the exponent multisets with their orbit sizes, and the
    Jacobi sum of every multiset as the JacobiTable that records its
    Galois orbits, each checked once.

    Complex conjugation is sigma_{-1} and Gal(Q(zeta_m)/Q) is abelian, so
    |sigma_t(j)|^2 = sigma_t(|j|^2) = sigma_t(q^r) = q^r: one check of
    |j|^2 = q^r, on the first member of an orbit, holds for all of it.
    The fill made the orbits, checking sigma_p(j) = j on every sum it
    evaluated; a table value that lies in no recorded orbit is one the
    fill never made, and is refused.  Callers bound |A|, the degree of
    P(T) and the number of Stickelberger rows, before FermatParams.create.
    """
    field = build_field(params.p, params.f, table_budget=table_budget)
    weights = exponent_multisets(params.m, params.r)
    sums = jacobi_sum_table(Character(field, params.m), weights)
    q_to_r = CycInt.integer(params.m, params.q**params.r)
    for orbit in sums.orbits:
        if modulus_squared(orbit[0]) != q_to_r:
            raise InternalCheckError(
                f"|j|^2 != q^r for j = {orbit[0]!r}; eigenvalue check failed")
    members = {beta for orbit in sums.orbits for beta in orbit}
    for alpha, j in sums.items():
        if j not in members:
            raise InternalCheckError(
                f"j({alpha}) = {j!r} lies in no Galois orbit of the table")
    return field, weights, sums


def zeta_fermat(p: int, m: int, r: int, *,
                alpha_budget: int = DEFAULT_ALPHA_BUDGET,
                table_budget: int = DEFAULT_TABLE_BUDGET) -> dict:
    """Z(T) = P(T)^sign_exponent / prod_i (1 - q^i T), i = 0..r, as the
    JSON-ready record {p, m, r, q, degree, poly_coeffs, sign_exponent,
    pole_q_powers}; poly_coeffs lists P(T), constant term first.

    P(T) = prod (1 - j(alpha) T) is assembled from the distinct eigenvalues.

    j(t alpha) = sigma_t(j(alpha)), so the eigenvalue multiset is stable
    under (Z/m)^*.  Each Galois orbit of distinct eigenvalues, as the
    table records it, contributes its norm polynomial
    N_i(T) = prod_{beta in orbit} (1 - beta T) to the power e_i, its
    multiplicity, and P = prod N_i^e_i is expanded over Z.  Hard checks:
    |j|^2 = q^r once per Galois orbit (conjugation commutes with every
    sigma_t) and every sum in a recorded orbit (_checked_jacobi_sums),
    one multiplicity along each orbit, norm polynomials in Z[T], exact
    division in the expansion and deg P = |A|.  The alpha budget bounds
    |A| before <p> is built.
    """
    _alpha_budget_check(m, r, alpha_budget)
    params = FermatParams.create(p, m, r)
    _, weights, sums = _checked_jacobi_sums(params, table_budget)
    multiplicity: Counter = Counter()
    for alpha, weight in weights.items():
        multiplicity[sums[alpha]] += weight

    factors: list[tuple[list[int], int]] = []
    for orbit in sums.orbits:
        mult = multiplicity[orbit[0]]
        if any(multiplicity[beta] != mult for beta in orbit):
            raise InternalCheckError(
                f"eigenvalue multiplicities differ along the Galois orbit "
                f"of {orbit[0]!r}")
        factors.append((_norm_polynomial(orbit, m), mult))
    coeffs = _expand_power_product(factors, alpha_count(m, r))
    return {"p": p, "m": m, "r": r, "q": params.q,
            "degree": len(coeffs) - 1, "poly_coeffs": list(coeffs),
            "sign_exponent": 1 if (r - 1) % 2 == 0 else -1,
            "pole_q_powers": list(range(r + 1))}


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

    P'/P = E/D with D = prod N_i and E = sum e_i N_i' D / N_i, both
    built by one left fold (D, E) <- (D N_i, E N_i + e_i N_i' D), three
    products per factor; so D P' = P E, and its T^(k-1) coefficient gives
    k P_k = sum_{i=1..deg D} (E_{i-1} - (k - i) D_i) P_{k-i},
    O(deg D) integer operations per coefficient.  The division by k must
    be exact and deg P must equal the expected degree.
    """
    total = sum(mult * (len(norm) - 1) for norm, mult in factors)
    if total != degree:
        raise InternalCheckError(
            f"orbit factors have degree {total}, expected {degree}")
    d, e = [1], []
    for norm, mult in factors:
        derivative = [mult * k * c for k, c in enumerate(norm)][1:]
        e = [x + y for x, y in zip(_schoolbook_product(e, norm),
                                   _schoolbook_product(derivative, d))]
        d = _schoolbook_product(d, norm)
    width = len(d) - 1
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


def eigenvalue_power_sums(poly_coeffs: list[int], s: int) -> list[int]:
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


def point_count_from_zeta(zeta: dict, s: int) -> int:
    """N_s = sum_i q^(i s) + (-1)^r sum_alpha j(alpha)^s, all exact, read
    off the poly_coeffs, q and r of a zeta_fermat record."""
    if s < 1:
        raise InputError(f"s must be >= 1, got {s}")
    q, r = zeta["q"], zeta["r"]
    pi_s = eigenvalue_power_sums(zeta["poly_coeffs"], s)[-1]
    total = sum(q ** (i * s) for i in range(r + 1))
    total += pi_s if r % 2 == 0 else -pi_s
    if total < 0:
        raise InternalCheckError(f"negative point count N_{s} = {total}")
    return total


def brute_force_point_count(p: int, m: int, r: int, s: int, *,
                            budget: int = DEFAULT_POINT_BUDGET,
                            table_budget: int = DEFAULT_TABLE_BUDGET) -> int:
    """Projective solutions of sum x_i^m = 0 over GF(Q), Q = q^s, counted
    from field arithmetic alone: no characters, no Jacobi sums.

    h(y) = #{x : x^m = y} is 1 at 0 and m on the nonzero m-th powers (m
    divides q - 1), and the affine solution count is the value at 0 of h
    convolved with itself r + 1 times.  Every partial convolution is
    invariant under scaling by nonzero m-th powers, so it is held as its
    value at 0 plus one value per coset of those powers.  A convolution
    step evaluates these m + 1 values, each over the (Q - 1)/m nonzero
    m-th powers; the budget bounds the (r + 1)(m + 1)(Q - 1)/m field
    subtractions this takes.  That exceeds (r + 1) m, checked first, and
    Q - 1: where FermatParams.create accepts the input, p^k mod m is
    walked up to the order f of p only while p^(k s) may fit the budget,
    so neither a large <p> nor Q is built.
    """
    if s < 1:
        raise InputError(f"s must be >= 1, got {s}")
    what = "point-count budget exceeded: {} field subtractions"
    if (r + 1) * m > budget:
        check_budget(None, budget, what)
    if is_prime(p) and m >= 3 and r >= 1 and gcd(p, m) == 1:
        q = p
        while q % m != 1 and s * (q.bit_length() - 1) < budget.bit_length():
            q *= p
        if s * (q.bit_length() - 1) >= budget.bit_length():  # Q > budget
            check_budget(None, budget, what)
    params = FermatParams.create(p, m, r)
    big_q = params.q**s
    check_budget((r + 1) * (m + 1) * ((big_q - 1) // m), budget, what)
    field = build_field(p, params.f * s, table_budget=table_budget)
    sub = field.sub
    powers, representatives = [], [0]
    slot = [0] * big_q  # 0 for zero, 1 + c for the coset of g^c
    for k, x in enumerate(field.powers()):
        slot[x] = 1 + k % m
        if k % m == 0:
            powers.append(x)
        if k < m:
            representatives.append(x)

    conv = [1, m] + [0] * (m - 1)  # h itself
    for _ in range(r + 1):
        conv = [conv[i] + m * sum(conv[slot[sub(y, z)]] for z in powers)
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
    """The zeta_fermat record with its cross-checks: for each s in checks,
    N_s read off P(T) against brute_force_point_count, which shares no
    characters or Jacobi sums with zeta_fermat.  all_match is the verdict
    (True when checks is empty).  Each brute-force count, with its
    budget, runs before N_s is read off P(T)."""
    zeta = zeta_fermat(p, m, r, alpha_budget=alpha_budget,
                       table_budget=table_budget)
    rows = []
    for s in checks:
        n_brute = brute_force_point_count(p, m, r, s, budget=point_budget,
                                          table_budget=table_budget)
        n_zeta = point_count_from_zeta(zeta, s)
        rows.append({"s": s, "zeta_count": n_zeta,
                     "brute_force_count": n_brute,
                     "match": n_zeta == n_brute})
    return {**zeta, "checks": rows,
            "all_match": all(row["match"] for row in rows)}


# --- the Stickelberger cross-check ---


def stickelberger_check(p: int, m: int, r: int, *,
                        alpha_budget: int = DEFAULT_ALPHA_BUDGET,
                        table_budget: int = DEFAULT_TABLE_BUDGET) -> dict:
    """The record of ord_P(j(alpha)) against the Stickelberger exponent,
    one verdict per distinct outcome: the header (p, m, r, f, q, total,
    equal_count, all_equal, precision_failures), the exponent vectors in
    the order of exponent_vectors as "vectors", "verdicts" as a list of
    {exponent, valuation, equal, error}, one per distinct (exponent,
    valuation) pair in first-seen order, and "keys", each vector's index
    into verdicts.  The verdict of vectors[i] is verdicts[keys[i]], so a
    caller that formats rows needs no dict per vector, and the record
    keeps that pairing through a JSON round trip.  equal_count counts
    vectors.  error and precision_failures stay None and 0: every
    valuation is exact or the call raises.

    Both sides are symmetric in alpha: the left side comes from the
    Jacobi sum through the lifted root of unity, once per member of the
    table's Galois orbits, which is once per distinct value, the right
    side from integer arithmetic alone, once per multiset
    (_multiset_exponent).  The two share nothing but the field
    construction.  Every Jacobi sum must lie in a recorded orbit and satisfy
    |j|^2 = q^r first, checked once per Galois orbit since conjugation
    commutes with every sigma_t (_checked_jacobi_sums), so a table fault
    that breaks it is an internal error rather than a mismatch.  That
    check also bounds ord_P(j) by ord_P(q^r) = f*r, below the working
    precision f*r + 2, so every valuation is exact or the table is at
    fault.  The alpha budget bounds |A| before <p> is built.
    """
    _alpha_budget_check(m, r, alpha_budget)
    params = FermatParams.create(p, m, r)
    field, weights, sums = _checked_jacobi_sums(params, table_budget)
    ctx = PadicContext(field, m, default_precision(params.f, r))
    exponent = _multiset_exponent(m, params.subgroup)
    w = _multiset_weights(m, r)
    valuations = {beta: padic_valuation(beta, ctx)
                  for orbit in sums.orbits for beta in orbit}
    outcomes, index_of, equal_count = {}, {}, 0
    for key, j in sums.items():
        val = valuations[j]
        if val is None:
            raise InternalCheckError(
                f"ord_P(j) >= {ctx.k} for alpha = {key}, above f*r = "
                f"{params.f * r}")
        exp = exponent(key)
        index_of[sum(map(w.__getitem__, key))] = outcomes.setdefault(
            (exp, val), len(outcomes))
        equal_count += weights[key] * (exp == val)
    verdicts = [{"exponent": exp, "valuation": val, "equal": exp == val,
                 "error": None} for exp, val in outcomes]
    vectors, keys = _vector_walk(m, r, alpha_budget)
    keys = list(map(index_of.__getitem__, keys))
    return {
        "p": params.p, "m": params.m, "r": params.r, "f": params.f,
        "q": params.q, "total": len(vectors), "equal_count": equal_count,
        "all_equal": equal_count == len(vectors), "precision_failures": 0,
        "vectors": vectors, "keys": keys, "verdicts": verdicts,
    }
