import random
from collections import Counter
from itertools import permutations
from math import gcd

import pytest

from cyheights import character_sums
from cyheights.character_sums import Character, jacobi_sum, jacobi_sum_table
from cyheights.cyclotomic import CycInt, degree, modulus_squared
from cyheights.errors import BudgetError, InputError, InternalCheckError
from cyheights.fermat import exponent_multisets, exponent_vectors
from cyheights.finite_field import (FiniteField, build_field,
                                    frobenius_subgroup)
from cyheights.padic import PadicContext, padic_valuation
from oracles import jacobi_sum_naive


def _logs(field):
    """dlog x for every x != 0, from one walk of field.powers()."""
    return {x: k for k, x in enumerate(field.powers())}


class GroupFunction:
    """A dense table F_q -> Z[zeta_m], convolved over the additive group.

    The quadratic-time convolution here is the reference semantics for
    jacobi_sum; it is also what the associativity and commutativity
    spot-tests run against.  Fine for q up to a few hundred.
    """

    __slots__ = ("field", "m", "values")

    def __init__(self, field: FiniteField, m: int, values):
        values = list(values)
        if len(values) != field.q:
            raise InputError("table length must equal q")
        self.field = field
        self.m = m
        self.values = values

    @classmethod
    def character_power(cls, field: FiniteField, m: int,
                        a: int) -> "GroupFunction":
        """The table x -> chi(x)^a with value 0 at x = 0, for the
        canonical order-m character chi(g) = zeta_m."""
        log = _logs(field)
        vals = [CycInt.zero(m)]
        for x in range(1, field.q):
            vals.append(CycInt.root_of_unity(m, log[x] * a))
        return cls(field, m, vals)

    def convolve(self, other: "GroupFunction") -> "GroupFunction":
        if self.field is not other.field or self.m != other.m:
            raise InputError("convolution operands live on different groups")
        field = self.field
        q = field.q
        out = [CycInt.zero(self.m) for _ in range(q)]
        for x in range(q):
            fx = self.values[x]
            if not fx:
                continue
            for y in range(q):
                gy = other.values[y]
                if gy:
                    z = field.add(x, y)
                    out[z] = out[z] + fx * gy
        return GroupFunction(field, self.m, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupFunction) and self.m == other.m
                and self.field is other.field and self.values == other.values)

    def __call__(self, x: int) -> CycInt:
        return self.values[x]


@pytest.fixture(scope="module")
def f9():
    return build_field(3, 2)


@pytest.fixture(scope="module")
def chi_9_4(f9):
    return Character(f9, 4)


@pytest.fixture(scope="module")
def f7():
    return build_field(7, 1)


@pytest.fixture(scope="module")
def chi_7_3(f7):
    return Character(f7, 3)


def test_character_basic_values(f9, chi_9_4):
    log, g = _logs(f9), f9.generator

    def chi(x, power=1):
        return CycInt.root_of_unity(4, log[x] * power)

    assert chi(1) == CycInt.one(4)
    assert chi(g) == CycInt.root_of_unity(4)
    # chi has exact order m
    assert chi(g, 4) == CycInt.one(4)
    assert chi(g, 2) != CycInt.one(4)
    # chi(g^2) = zeta^2 = -1
    assert chi(tuple(f9.powers())[2]) == CycInt.integer(4, -1)
    # -1 = g^4 in GF(9), so chi(-1) = 1
    assert chi_9_4.minus_one_exp == log[f9.neg(1)] % 4 == 0


def test_character_is_multiplicative(f9, chi_9_4):
    exp = tuple(f9.powers())
    log = exp.index

    def chi(x):
        return CycInt.root_of_unity(4, log(x))

    for x in range(1, f9.q):
        for y in range(1, f9.q):
            xy = exp[(log(x) + log(y)) % (f9.q - 1)]
            assert chi(xy) == chi(x) * chi(y)
    assert (CycInt.root_of_unity(4, chi_9_4.minus_one_exp)
            == chi(f9.neg(1)))


def test_character_rejections():
    with pytest.raises(InputError):
        Character(build_field(3, 2), 3)  # 3 does not divide 8


def _conv_jacobi(alpha, field, m):
    """Reference route: dense additive convolution evaluated at -1."""
    acc = GroupFunction.character_power(field, m, alpha[1])
    for a in alpha[2:]:
        acc = acc.convolve(GroupFunction.character_power(field, m, a))
    value = acc(field.neg(1))
    return -value if (len(alpha) - 2) % 2 else value


def test_fermat_cubic_jacobi_sum(f7, chi_7_3):
    # hand value: the double loop over v1 + v2 = -1 in F_7^* gives 1 + 3*zeta
    j = jacobi_sum((1, 1, 1), chi_7_3)
    assert j == CycInt.from_coeffs(3, [1, 3])
    assert jacobi_sum_naive((1, 1, 1), f7, 3) == j
    assert _conv_jacobi((1, 1, 1), f7, 3) == j
    assert modulus_squared(j) == CycInt.integer(3, 7)
    # the two eigenvalues sum to -1, i.e. the cubic has 9 points over F_7
    j2 = jacobi_sum((2, 2, 2), chi_7_3)
    assert j + j2 == CycInt.integer(3, -1)


def test_supersingular_k3_valuation(f9, chi_9_4):
    j = jacobi_sum((1, 1, 1, 1), chi_9_4)
    assert jacobi_sum_naive((1, 1, 1, 1), f9, 4) == j
    ctx = PadicContext(f9, 4, 6)
    assert padic_valuation(j, ctx) == 2  # slope 1: f = 2


def test_oracle_equivalence_quartic_surface(f9, chi_9_4):
    for alpha in exponent_vectors(4, 2):
        assert jacobi_sum(alpha, chi_9_4) == jacobi_sum_naive(alpha, f9, 4)


def test_oracle_equivalence_quintic_threefold():
    field = build_field(2, 4)
    chi = Character(field, 5)
    for alpha in exponent_vectors(5, 3):
        assert jacobi_sum(alpha, chi) == jacobi_sum_naive(alpha, field, 5)


def test_oracle_equivalence_cubic_curve_p13():
    field = build_field(13, 1)
    chi = Character(field, 3)
    for alpha in exponent_vectors(3, 1):
        assert jacobi_sum(alpha, chi) == jacobi_sum_naive(alpha, field, 3)


def test_convolution_route_agrees(f9, chi_9_4):
    for alpha in exponent_vectors(4, 2)[:8]:
        assert _conv_jacobi(alpha, f9, 4) == jacobi_sum(alpha, chi_9_4)


def test_weil_modulus_exact(chi_9_4, chi_7_3):
    q_r = CycInt.integer(4, 81)
    for alpha in exponent_vectors(4, 2):
        assert modulus_squared(jacobi_sum(alpha, chi_9_4)) == q_r
    q_r = CycInt.integer(3, 7)
    for alpha in exponent_vectors(3, 1):
        assert modulus_squared(jacobi_sum(alpha, chi_7_3)) == q_r


def test_galois_equivariance(chi_9_4):
    for alpha in exponent_vectors(4, 2):
        j = jacobi_sum(alpha, chi_9_4)
        scaled = tuple((3 * a) % 4 for a in alpha)
        assert jacobi_sum(scaled, chi_9_4) == j.galois(3)


def test_alpha_validation(chi_9_4):
    with pytest.raises(InputError):
        jacobi_sum((1, 1), chi_9_4)
    with pytest.raises(InputError):
        jacobi_sum((0, 1, 3), chi_9_4)
    with pytest.raises(InputError):
        jacobi_sum((1, 1, 1), chi_9_4)  # sums to 3, not 0 mod 4


def test_naive_oracle_uses_no_character_code(monkeypatch, f9, chi_9_4):
    def forbidden(*args, **kwargs):
        raise AssertionError("the naive oracle used character code")

    expected = jacobi_sum((1, 1, 1, 1), chi_9_4)
    monkeypatch.setattr(character_sums, "Character", forbidden)
    assert jacobi_sum_naive((1, 1, 1, 1), f9, 4) == expected


def test_no_q_entry_table_is_stored():
    # the walk feeds the pass that reads it; the field and the character
    # keep nothing with one entry per element (exp had q - 1)
    field = build_field(2, 16)
    chi = Character(field, 5)
    for obj in (field, chi):
        for name in type(obj).__slots__:
            value = getattr(obj, name)
            assert not (hasattr(value, "__len__")
                        and len(value) >= field.q - 1), name


# Kernel products for f = 1, for odd p at f = 2 and f = 6 (pairwise
# digit merges over a non-power-of-two f) and for p = 2; walks of a few
# lists, and one whose first list, the start of a shorter walk, is the
# whole walk.
# Log items of one byte (m <= 16), two (m <= 256) and four (m = 511);
# q - 2 > 2^16 pairs, more than one stretch of keys, at p = 100003.
@pytest.mark.parametrize("p,f,m,later", [
    (1009, 1, 7, True), (1009, 1, 36, True), (100003, 1, 7, True),
    (131, 2, 3, True), (3, 6, 7, True), (2, 12, 13, True),
    (3, 5, 11, True), (2, 11, 23, True), (2, 9, 511, False)])
def test_cyclotomic_numbers_match_a_direct_count(monkeypatch, p, f, m,
                                                 later):
    field = build_field(p, f)
    real, walks = FiniteField.power_blocks, []

    def counted(self, length):  # the lists of each walk, outer one first
        lists = []
        walks.append(lists)
        for block in real(self, length):
            lists.append(block)
            yield block

    monkeypatch.setattr(FiniteField, "power_blocks", counted)
    chi = Character(field, m)
    assert (len(walks[0]) > 1) == later
    e = {x: k % m for x, k in _logs(field).items()}
    direct = Counter((e[field.sub(1, y)], e[y]) for y in range(2, field.q))
    assert Counter(chi.cyclotomic_numbers) == Counter(
        (i, j, count) for (i, j), count in direct.items())
    assert chi.minus_one_exp == e[field.neg(1)]


def test_naive_budget(f9):
    with pytest.raises(BudgetError):
        jacobi_sum_naive((1, 1, 1, 1), f9, 4, budget=10)


def _random_table(field, m, rng):
    return GroupFunction(field, m, [
        CycInt.from_coeffs(m, [rng.randint(-3, 3) for _ in range(degree(m))])
        for _ in range(field.q)])


@pytest.mark.parametrize("p,f,m", [(2, 3, 1), (3, 2, 4)])
def test_convolution_associative_commutative(p, f, m):
    rng = random.Random(29)
    field = build_field(p, f)
    for _ in range(3):
        a = _random_table(field, m, rng)
        b = _random_table(field, m, rng)
        c = _random_table(field, m, rng)
        assert a.convolve(b) == b.convolve(a)
        assert a.convolve(b).convolve(c) == a.convolve(b.convolve(c))


def test_group_function_validation(f9):
    with pytest.raises(InputError):
        GroupFunction(f9, 4, [CycInt.zero(4)])
    f_a = GroupFunction.character_power(f9, 4, 1)
    other_field = build_field(2, 3)
    g = GroupFunction(other_field, 4, [CycInt.zero(4)] * 8)
    with pytest.raises(InputError):
        f_a.convolve(g)


def test_jacobi_sum_table_matches_pointwise(chi_9_4):
    multisets = list(exponent_multisets(4, 2))
    table = jacobi_sum_table(chi_9_4, multisets)
    assert set(table) == set(multisets)
    for alpha in exponent_vectors(4, 2):
        assert table[tuple(sorted(alpha))] == jacobi_sum(alpha, chi_9_4)


# the five fields_warm shapes, then composite m, f up to 9, up to 12
# cosets of <p> in (Z/m)^*, and p = 2
@pytest.mark.parametrize("p,m,r", [(2, 73, 1), (2, 63, 1), (7, 57, 1),
                                   (5, 31, 1), (3, 11, 2), (2, 15, 2),
                                   (2, 21, 1), (3, 8, 2)])
def test_coset_fill_matches_jacobi_sum_everywhere(p, m, r):
    chi = Character(build_field(p, len(frobenius_subgroup(p, m))), m)
    multisets = list(exponent_multisets(m, r))
    table = jacobi_sum_table(chi, multisets)
    direct = {alpha: jacobi_sum(alpha, chi) for alpha in multisets}
    assert table == direct
    # Frobenius fixes every Jacobi sum, read without the table
    for alpha, j in direct.items():
        assert direct[tuple(sorted(p * a % m for a in alpha))] == j
    # the recorded orbits, coset arithmetic included: they partition the
    # distinct values, each is closed under every sigma_t, and each lists
    # sigma_t(j) = j(t*alpha) for the least unit t of each coset t<p>
    # without repeats, so the sum j(alpha) itself first
    units = [t for t in range(1, m) if gcd(t, m) == 1]
    subgroup = frobenius_subgroup(p, m)
    least = [t for t in units if t == min(t * u % m for u in subgroup)]
    members = [j for orbit in table.orbits for j in orbit]
    assert len(members) == len(set(members))
    assert set(members) == set(direct.values())
    for orbit in table.orbits:
        assert {j.galois(t) for j in orbit for t in units} == set(orbit)
        alpha = next(a for a, j in direct.items() if j == orbit[0])
        assert orbit == list(dict.fromkeys(
            direct[tuple(sorted(t * a % m for a in alpha))] for t in least))


@pytest.mark.parametrize("p,f,m", [(3, 2, 4), (2, 3, 7)])
def test_table_rejects_a_sum_frobenius_moves(monkeypatch, p, f, m):
    # j * zeta_m keeps |j|^2 = q^r, but sigma_p moves it since p != 1 mod m
    chi = Character(build_field(p, f), m)
    real = character_sums.jacobi_sum
    monkeypatch.setattr(character_sums, "jacobi_sum",
                        lambda alpha, chi: real(alpha, chi)
                        * CycInt.root_of_unity(chi.m))
    with pytest.raises(InternalCheckError, match="sigma_p"):
        jacobi_sum_table(chi, list(exponent_multisets(m, 1)))


@pytest.mark.parametrize("p,f,m,r", [(3, 2, 4, 2), (7, 1, 3, 1),
                                     (13, 1, 4, 2), (2, 4, 5, 2)])
def test_jacobi_sum_is_symmetric_in_all_components(p, f, m, r):
    # literal enumeration, which excludes a_0 from the summand, gives one
    # value on every ordering of a multiset, a_0 included
    field = build_field(p, f)
    chi = Character(field, m)
    multisets = list(exponent_multisets(m, r))
    table = jacobi_sum_table(chi, multisets)
    for alpha in multisets:
        values = {jacobi_sum_naive(perm, field, m)
                  for perm in set(permutations(alpha))}
        assert values == {table[alpha]}


def _two_variable_reference(field, m):
    """Every J(s, b) by the O(q) loop through FiniteField.sub that
    two_variable_sum ran before the cyclotomic numbers; the pairs
    (e(1-y), e(y)) are listed once and reused for each (s, b)."""
    e = {x: k % m for x, k in _logs(field).items()}
    pairs = [(e[field.sub(1, y)], e[y]) for y in range(2, field.q)]
    sums = {}
    for s in range(m):
        for b in range(m):
            counts = [0] * m
            for i, j in pairs:
                counts[(s * i + b * j) % m] += 1
            sums[s, b] = CycInt.from_exponent_counts(m, counts)
    return sums


# m^2 > q, so the cyclotomic numbers are sparse, everywhere but (5, 3, 4)
@pytest.mark.parametrize("p,f,m", [(3, 2, 8), (3, 2, 4), (2, 4, 15),
                                   (2, 6, 63), (5, 3, 31), (5, 3, 4),
                                   (7, 3, 57)])
def test_two_variable_sums_match_the_field_loop(p, f, m):
    field = build_field(p, f)
    chi = Character(field, m)
    reference = _two_variable_reference(field, m)
    assert {(s, b): chi.two_variable_sum(s, b)
            for s in range(m) for b in range(m)} == reference
    numbers = chi.cyclotomic_numbers
    assert sum(count for _, _, count in numbers) == field.q - 2
    assert all(count > 0 for _, _, count in numbers)
    assert len(numbers) <= min(field.q - 2, m * m)


@pytest.mark.parametrize("p,f,m", [(3, 2, 8), (2, 4, 15), (2, 6, 63),
                                   (5, 3, 31), (13, 1, 12), (3, 1, 2)])
def test_jacobi_sums_match_the_enumeration_at_r1(p, f, m):
    field = build_field(p, f)
    chi = Character(field, m)
    for alpha in exponent_multisets(m, 1):
        assert jacobi_sum(alpha, chi) == jacobi_sum_naive(alpha, field, m)
