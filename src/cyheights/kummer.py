"""Heights of Kummer-type Calabi-Yau varieties and period lattices.

A Calabi-Yau resolution of A/G, with A an abelian variety and |G| prime
to the characteristic, inherits the formal group of A, so its height is
read off the p-rank of A: n gives height 1, n-1 gives 2, anything lower
gives infinity.  For the standard example, A = E^3 with E: y^2 = x^3 + 1
acted on by a cube root of unity, the p-rank comes from an exact point
count of E rather than from any congruence shortcut.  Up to p = 229 the
count is an O(p) Legendre-symbol sweep.  Above 229, the j = 0 curves
y^2 = x^3 + b, the standard one among them, are counted by complex
multiplication by Z[omega] from one Cornacchia solve, and every such
count must pass a point-order check on E and its quadratic twist that
shares no step with it.  Other curves are counted from point orders on E
and its twist, found by baby-step giant-step in O(p^(1/4)) group
operations whose giant walk is built from the babies; that search is the
oracle of the CM count in the tests, and a sweep that shares none of its
steps is the oracle of the search.  On the standard curve at p = 2 mod 3
the CM count p + 1 is the supersingular pattern mod 3 itself, so there
the report's agreement with the closed-form height is no independent
check; the point-order check is what keeps that count honest.

The intermediate Jacobian of the rigid quotient is C modulo the lattice
generated by 1, omega, omega^2, omega^3 for a quadratic omega; the
lattice lives in Q(omega) and is handled with exact rational arithmetic
in Hermite normal form, found by Euclid on the generator rows and
checked against them.  No command reads the lattices; they back the
claim that the periods of zeta_3 and i span Z + Z*omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import InputError, InternalCheckError, check_budget
from .fermat import INFINITE
from .finite_field import is_prime

DEFAULT_PRIME_BUDGET = 10**6

# Mestre's theorem: for p > 229, E or its quadratic twist has a point
# whose order has exactly one multiple in the Hasse interval (Schoof,
# JTNB 7 (1995), section 3; the bound is sharp).
MESTRE_BOUND = 229


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p) in {-1, 0, 1} for odd prime p."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def check_prime_budget(p: int) -> None:
    """BudgetError (errors.check_budget) if a point count over GF(p)
    exceeds DEFAULT_PRIME_BUDGET."""
    check_budget(p, DEFAULT_PRIME_BUDGET,
                 "point-count budget exceeded: p = {}")


def ec_count_points(p: int, a: int, b: int) -> int:
    """#E(F_p) including the point at infinity for the curve
    E: y^2 = x^3 + a*x + b.

    InputError unless p is a prime >= 5 and E is nonsingular mod p;
    BudgetError if p exceeds DEFAULT_PRIME_BUDGET.  For
    p <= MESTRE_BOUND = 229 the count is a Legendre-symbol sweep over x,
    read from one table of quadratic residues mod p, the squares of
    1..(p-1)/2:
    roots[v] = #{y : y^2 = v} = 1 + (v/p).  Above 229 a curve with
    a = 0 mod p is counted by complex multiplication (_count_by_cm), and
    the count must pass the Hasse check and then _check_point_orders,
    which shares no step with CM; the tests check CM against the
    baby-step giant-step count.  On y^2 = x^3 + 1 at p = 2 mod 3 the CM
    count is the mod-3 pattern that kummer_report predicts, so only the
    point-order check stands behind it.  Every other curve above 229 is
    counted from point orders by baby-step giant-step in O(p^(1/4))
    group operations (_count_by_orders); the tests check it against a
    sweep.
    """
    _check_prime(p)
    return _count_points(p, a, b)


def _check_prime(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise InputError(f"p must be a prime >= 5, got {p}")


def _count_points(p: int, a: int, b: int) -> int:
    """ec_count_points at a p already proven prime >= 5."""
    a, b = a % p, b % p
    if (4 * a**3 + 27 * b**2) % p == 0:
        raise InputError(
            f"singular curve: 4a^3 + 27b^2 = 0 mod {p} for a={a}, b={b}")
    check_prime_budget(p)
    by_cm = p > MESTRE_BOUND and a == 0
    if by_cm:
        total = _count_by_cm(p, b)
    elif p > MESTRE_BOUND:
        total = _count_by_orders(p, a, b)
    else:
        roots = bytearray(p)
        roots[0] = 1
        for y in range(1, (p + 1) // 2):
            roots[y * y % p] = 2
        total = 1 + sum(roots[((x * x + a) * x + b) % p] for x in range(p))
    trace = p + 1 - total
    if trace * trace > 4 * p:
        raise InternalCheckError(
            f"Hasse bound violated: |a_p| = {abs(trace)} > 2*sqrt({p})")
    if by_cm:
        _check_point_orders(p, b, total)
    return total


# --- point counts on j = 0 curves by complex multiplication ---


def _count_by_cm(p: int, b: int) -> int:
    """#E(F_p) for E: y^2 = x^3 + b, b != 0 mod p, by complex
    multiplication by Z[omega] (Ireland-Rosen, ch. 18, section 3).

    At p = 2 mod 3 the count is p + 1, since x -> x^3 permutes F_p.  At
    p = 1 mod 3, p = pi * conj(pi) with pi = u + v*omega primary
    (pi = 2 mod 3), and #E = p + 1 + Tr(conj(chi) * pi), where
    chi = (4b/pi)_6 is the sextic residue symbol and Tr(u + v*omega) =
    2u - v.  pi = (x + y) + 2y*omega comes from p = x^2 + 3y^2 by
    Cornacchia's algorithm (Cohen, Algorithm 1.5.2) on the square root
    2w + 1 of -3, w a cube root of unity mod p.  F_p = Z[omega]/pi sends
    omega to the w with u + v*w = 0, and chi to the sixth root of unity
    (4b)^((p-1)/6); conj(chi) = +-omega^k is found by turning pi by omega
    while dividing its image by w."""
    if p % 3 == 2:
        return p + 1
    g, w = 2, 1
    while w == 1:  # a non-cube g gives a cube root of unity w != 1
        w = pow(g, (p - 1) // 3, p)
        g += 1
    r, x = p, (2 * w + 1) % p
    while x * x > p:  # Euclid down to the first remainder below sqrt(p)
        r, x = x, r % x
    y = isqrt((p - x * x) // 3)
    if x * x + 3 * y * y != p:
        raise InternalCheckError(f"Cornacchia found no x^2 + 3y^2 = {p}")
    u, v = x + y, 2 * y  # norm u^2 - uv + v^2 = p
    while u % 3 != 2 or v % 3:  # make pi primary by a unit
        u, v = (-v, u - v) if v % 3 else (-u, -v)  # times omega, or -1
    if (u + v * w) % p:
        w = p - 1 - w  # the other cube root of unity, w^2
    z = pow(4 * b, (p - 1) // 6 * 5, p)  # conj(chi) = chi^5 mod pi
    while z != 1 and z != p - 1:
        z = z * (p - 1 - w) % p  # z / w
        u, v = -v, u - v  # pi * omega
    trace = 2 * u - v
    return p + 1 + (trace if z == 1 else -trace)


def _check_point_orders(p: int, b: int, n: int) -> None:
    """InternalCheckError unless n*P = O for a point P of
    E: y^2 = x^3 + b and (2p + 2 - n)*P' = O for a point P' of its
    quadratic twist; n must lie in the Hasse interval.

    The points are those of _count_by_orders: (c*x, c^2) for
    x = 1, 2, ... with c = x^3 + b, on y^2 = x^3 + b*c^3, which is E when
    c is a square mod p and its twist when not.  The 2- and 3-torsion
    (c = 0, x = 0 and x^3 = -4b, that is c = -3b) is skipped, since
    n*P = O holds there whenever 6 divides n.  This shares no step with
    CM."""
    points = {}  # legendre(c, p) -> the first point: 1 on E, -1 on the twist
    for x in range(1, p):
        c = (x * x * x + b) % p
        if c and (c + 3 * b) % p:
            points.setdefault(legendre(c, p), (c * x % p, c * c % p))
            if len(points) == 2:
                break
    if not _kills(n, points[1], p):
        raise InternalCheckError(
            f"#E(F_{p}) = {n} for b={b} fails a point order on E")
    if not _kills(2 * p + 2 - n, points[-1], p):
        raise InternalCheckError(
            f"#E(F_{p}) = {n} for b={b} fails a point order on the twist")


def _jacobian_double(X: int, Y: int, Z: int, p: int):
    """2*(X, Y, Z) on y^2 = x^3 + B, in Jacobian coordinates
    (X/Z^2, Y/Z^3); O and the 2-torsion go to Z = 0.  B is not needed."""
    YY = Y * Y % p
    S, M = 4 * X * YY % p, 3 * X * X % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * (S - X3) - 8 * YY * YY) % p, 2 * Y * Z % p


def _kills(n: int, P, p: int) -> bool:
    """n*P = O for n >= 1 and an affine point P of y^2 = x^3 + B, by
    double-and-add in Jacobian coordinates, so no step takes an inverse;
    O is Z = 0."""
    x, y = P
    X, Y, Z = x, y, 1
    for bit in bin(n)[3:]:
        X, Y, Z = _jacobian_double(X, Y, Z, p)
        if bit == "0":
            continue
        ZZ = Z * Z % p  # (X, Y, Z) + P
        H, R = (x * ZZ - X) % p, (y * ZZ * Z - Y) % p
        if Z == 0:  # O + P
            X, Y, Z = x, y, 1
        elif H:
            HH = H * H % p
            HHH, V = H * HH % p, X * HH % p
            X = (R * R - HHH - 2 * V) % p
            Y, Z = (R * (V - X) - Y * HHH) % p, Z * H % p
        elif R:  # the point was -P
            Z = 0
        else:  # the point was P
            X, Y, Z = _jacobian_double(X, Y, Z, p)
    return Z == 0


# --- point counts from point orders (Shanks-Mestre) ---


def _ec_add(P, Q, A: int, p: int):
    """P + Q on y^2 = x^3 + A*x + B over GF(p); B is not needed."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _ec_mul(n: int, P, A: int, p: int):
    """n*P for n >= 0, by double-and-add."""
    result = None
    while n:
        if n & 1:
            result = _ec_add(result, P, A, p)
        n >>= 1
        if n:
            P = _ec_add(P, P, A, p)
    return result


def _order_multiples(P, A: int, p: int, r: int) -> set[int]:
    """The n in the Hasse interval [p+1-r, p+1+r] with n*P = O, by
    baby-step giant-step: babies v*P for 1 <= v <= s, giant steps n*P for
    n = p+1-r+s + u*w, w = 2s+1, whose windows [n-s, n+s] tile the interval.

    A baby step v*P that is O, -v'*P for an earlier v' or its own
    negative gives the order of P exactly: v, v + v' or 2v.  Every order
    up to 2s shows so; past 2s the baby points have distinct
    x-coordinates and nonzero y, and each window holds at most one n.
    The step w*P is 2(s*P) + P; the walk starts at a multiple of it plus
    or minus a baby."""
    lo, hi = p + 1 - r, p + 1 + r
    s = isqrt(r) + 1
    babies, points, Q = {}, [None], None  # points[v] = v*P
    for v in range(1, s + 1):
        Q = _ec_add(Q, P, A, p)
        if Q is None or Q[0] in babies or Q[1] == 0:
            order = v if Q is None else v + babies.get(Q[0], v)
            return set(range(-(-lo // order) * order, hi + 1, order))
        babies[Q[0]] = v
        points.append(Q)
    w = 2 * s + 1
    step = _ec_add(_ec_add(Q, Q, A, p), P, A, p)
    a, b = divmod(lo + 2 * s, w)
    b -= s  # lo + s = a*w + b with |b| <= s
    offset = points[abs(b)]
    if b < 0:
        offset = offset[0], -offset[1] % p
    R = _ec_add(_ec_mul(a - 1, step, A, p), offset, A, p)  # (lo + s - w)*P
    found = set()
    for n in range(lo + s, hi + s + 1, w):
        R = _ec_add(R, step, A, p)
        if R is None:
            found.add(n)
        elif R[0] in babies:  # R = +-v*P, so (n -+ v)*P = O
            v = babies[R[0]]
            found.add(n - v if R[1] == points[v][1] else n + v)
    return {n for n in found if lo <= n <= hi}


def _count_by_orders(p: int, a: int, b: int) -> int:
    """#E(F_p) for p > 229 by the Shanks-Mestre method (Cohen, Alg.
    7.4.12).

    For x = 0, 1, 2, ... with c = x^3 + a*x + b != 0, the point
    (c*x, c^2) lies on y^2 = x^3 + a*c^2*x + b*c^3, which is E when c is
    a square mod p and its quadratic twist when not, so no square root is
    taken.  N = #E is a multiple of each point order on E, and 2p+2-N one
    of each on the twist; the walk stops when exactly one N in the Hasse
    interval remains, which Mestre's theorem guarantees before x runs
    out."""
    r = isqrt(4 * p)
    fits = None  # every N in the Hasse interval, until the first point
    for x in range(p):
        c = ((x * x + a) * x + b) % p
        if c == 0:
            continue
        A, P = a * c * c % p, (c * x % p, c * c % p)
        multiples = _order_multiples(P, A, p, r)
        if legendre(c, p) < 0:  # P lies on the twist, of order 2p+2-N
            multiples = {2 * p + 2 - n for n in multiples}
        fits = multiples if fits is None else fits & multiples
        if len(fits) == 1:
            return fits.pop()
        if not fits:
            break
    raise InternalCheckError(
        f"point orders leave #E(F_{p}) undetermined for a={a}, b={b}")


def abelian_height(n: int, p_rank: int) -> int | str:
    """Height of the formal group of an abelian variety of dimension n >= 2
    from its p-rank in [0, n]: 1, 2 or INFINITE."""
    if n < 2:
        raise InputError(f"dimension must be >= 2, got {n}")
    if not 0 <= p_rank <= n:
        raise InputError(f"p-rank must lie in [0, {n}], got {p_rank}")
    if p_rank == n:
        return 1
    if p_rank == n - 1:
        return 2
    return INFINITE


def predicted_example_height(p: int) -> int | str:
    """Closed-form height of the E^3 example: 1 when p = 1 mod 3, else
    INFINITE (E is supersingular exactly when p = 2 mod 3)."""
    return 1 if p % 3 == 1 else INFINITE


def kummer_report(p: int, a: int = 0, b: int = 1) -> dict:
    """One JSON-ready record for E: y^2 = x^3 + a*x + b over GF(p) and a
    Calabi-Yau quotient of E^3, from one point count.

    quotient_height is the height of the resolution of E^3 by the (Z/2)^2
    action that preserves dz1 dz2 dz3, which every E has.  The diagonal
    cube-root action, and with it E^3 / mu_3, exists only on the j = 0
    curves (a = 0 mod p); that resolution keeps the same H^{3,0} =
    H^{1,0}(E)^{(x)3}, so the same height.

    The p-rank of E is 0 exactly when a_p = 0 (valid since p >= 5), and
    E^3 has p-rank 3 * rank.  For the standard curve, (a, b) = (0, 1)
    mod p, the closed-form pattern mod 3 is an independent check on the
    counted height, except at p = 2 mod 3 above 229: there the CM count
    is p + 1, the pattern itself, and the point-order check of
    ec_count_points is what keeps the count honest.  For other curves no
    prediction applies."""
    _check_prime(p)
    return _report_at_prime(p, a, b)


def _report_at_prime(p: int, a: int, b: int) -> dict:
    """kummer_report at a p already proven prime >= 5.  survey kummer
    sieves its window, a proof for every p in it, so its rows call this
    and skip a second proof."""
    points = _count_points(p, a, b)
    trace = p + 1 - points
    rank = 0 if trace == 0 else 1
    quotient = abelian_height(3, 3 * rank)
    a, b = a % p, b % p
    predicted = predicted_example_height(p) if (a, b) == (0, 1) else None
    return {
        "p": p, "a": a, "b": b,
        "points": points, "trace": trace, "p_rank": rank,
        "abelian_dim": 3,
        "curve_formal_height": 1 if rank == 1 else 2,
        "quotient_height": quotient,
        "predicted_height": predicted,
        "agree": None if predicted is None else quotient == predicted,
    }


# --- rank-2 lattices in an imaginary quadratic field ---


MinPoly = tuple[int, int, int]


def _check_min_poly(poly: MinPoly) -> MinPoly:
    a, b, c = (int(x) for x in poly)
    if a <= 0:
        raise InputError(f"leading coefficient must be positive, got {a}")
    if gcd(gcd(a, b), c) != 1:
        raise InputError(f"minimal polynomial {poly} is not primitive")
    disc = b * b - 4 * a * c
    if disc >= 0:
        raise InputError(
            f"discriminant must be negative (omega non-real), got {disc}")
    return (a, b, c)


Pair = tuple[Fraction, Fraction]


def _hnf_rows(rows: list[tuple[int, int]]) -> tuple[tuple[int, int],
                                                    tuple[int, int]]:
    """Hermite normal form [[a, b], [0, c]] of a rank-2 integer row span,
    by Euclid on whole rows (Cohen, section 2.4.2): each row is folded
    into the pivot (a, b) until its first entry is 0, and c is the gcd of
    the second entries left over."""
    a = b = c = 0
    for u, v in rows:
        while u:
            t = a // u
            a, b, u, v = u, v, a - t * u, b - t * v
        c = gcd(c, v)
    if a == 0 or c == 0:
        raise InputError("generators do not span a rank-2 lattice")
    if a < 0:
        a, b = -a, -b
    return (a, b % c), (0, c)


@dataclass(frozen=True)
class QuadLattice:
    """A rank-2 Z-module in Q(omega), coordinates (u, v) for u + v*omega.

    The basis is canonical, so two generating sets of the same module
    compare equal."""

    min_poly: MinPoly
    basis: tuple[Pair, Pair]  # canonical: [[a, b], [0, c]] over a denominator

    def contains(self, u, v) -> bool:
        u, v = Fraction(u), Fraction(v)
        (a, b), (_, c) = self.basis
        s = u / a
        if s.denominator != 1:
            return False
        t = (v - s * b) / c
        return t.denominator == 1

    def determinant(self) -> Fraction:
        """Covolume in (u, v) coordinates; positive."""
        return self.basis[0][0] * self.basis[1][1]


def lattice_from_generators(min_poly: MinPoly, generators) -> QuadLattice:
    """Canonicalize a generating set into Hermite normal form.

    The span equality between input and basis is verified: each
    generator must be an integer combination of the basis and the
    generator coordinates must span all of Z^2."""
    poly = _check_min_poly(min_poly)
    pairs: list[Pair] = [(Fraction(u), Fraction(v)) for u, v in generators]
    den = lcm(*(x.denominator for pair in pairs for x in pair))
    int_rows = [(int(u * den), int(v * den)) for u, v in pairs]
    (a, b), (_, c) = _hnf_rows(int_rows)
    basis = ((Fraction(a, den), Fraction(b, den)),
             (Fraction(0), Fraction(c, den)))
    _verify_same_span(int_rows, a, b, c)
    return QuadLattice(poly, basis)


def _verify_same_span(int_rows, a: int, b: int, c: int) -> None:
    coord_rows = []
    for u, v in int_rows:
        if (u, v) == (0, 0):
            continue
        s, rem = divmod(u, a)
        if rem:
            raise InternalCheckError("generator escapes the HNF basis span")
        t, rem = divmod(v - s * b, c)
        if rem:
            raise InternalCheckError("generator escapes the HNF basis span")
        coord_rows.append((s, t))
    identity = _hnf_rows(coord_rows)
    if identity != ((1, 0), (0, 1)):
        raise InternalCheckError("HNF basis is not generated by the input")


def period_lattice(min_poly: MinPoly) -> QuadLattice:
    """The Z-module generated by 1, omega, omega^2, omega^3 in Q(omega).

    omega satisfies a*omega^2 + b*omega + c = 0 with negative
    discriminant; higher powers are rewritten through the relation."""
    a, b, c = _check_min_poly(min_poly)
    one: Pair = (Fraction(1), Fraction(0))
    omega: Pair = (Fraction(0), Fraction(1))
    omega2: Pair = (Fraction(-c, a), Fraction(-b, a))
    # omega^3 = omega * omega^2 = (-b*omega^2 - c*omega) / a
    omega3: Pair = (Fraction(b * c, a * a),
                    Fraction(b * b, a * a) - Fraction(c, a))
    return lattice_from_generators((a, b, c), [one, omega, omega2, omega3])


def standard_lattice(min_poly: MinPoly) -> QuadLattice:
    """Z + Z*omega."""
    return lattice_from_generators(min_poly, [(1, 0), (0, 1)])


def lattice_index(inner: QuadLattice, outer: QuadLattice) -> Fraction:
    """Generalized index [outer : inner] as a positive rational.

    Equals the ratio of covolumes; it is 1 exactly when the two modules
    have equal determinant, and together with equality of the canonical
    bases that certifies isomorphic period lattices."""
    if inner.min_poly != outer.min_poly:
        raise InputError("lattices live over different quadratic fields")
    return inner.determinant() / outer.determinant()
