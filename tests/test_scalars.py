"""Exact scalar arithmetic: exhaustive axioms for the small fields, canonical
forms, and serialization round trips."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from endop.errors import DomainMismatch, NotInvertible, UnsupportedDomain
from endop.scalars import (
    QQ,
    FiniteField,
    IntegersMod,
    Scalar,
    _pmod,
    _pmul,
    finite_field,
    is_prime,
)
from oracles import field_from_json_dict

SMALL_FIELDS = [finite_field(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]
F27 = FiniteField(3, 3, (1, 2, 0, 1))


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=str)
def test_field_axioms_exhaustive(F):
    els = F.elements()
    zero, one = F.zero_raw, F.one_raw
    for a in els:
        assert F.add(a, zero) == a
        assert F.mul(a, one) == a
        assert F.add(a, F.neg(a)) == zero
        if a != zero:
            assert F.mul(a, F.inv(a)) == one
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=str)
def test_multiplicative_group_cyclic(F):
    # independent structure check: element orders divide q-1 and some element
    # attains it
    q = F.q
    orders = []
    for a in F.elements():
        if a == F.zero_raw:
            continue
        k, x = 1, a
        while x != F.one_raw:
            x = F.mul(x, a)
            k += 1
        assert (q - 1) % k == 0
        orders.append(k)
    assert max(orders) == q - 1


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=str)
def test_frobenius_is_identity_on_field(F):
    for a in F.elements():
        for e in (0, 1, 2):
            assert F.pow(a, F.q ** e) == a  # a^(q^e) = a


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=str)
def test_p_power_is_additive(F):
    p = F.p
    for a in F.elements():
        for b in F.elements():
            assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


def test_frobenius_fixed_points_are_prime_field():
    F = finite_field(16)
    fixed = [a for a in F.elements() if F.pow(a, F.p) == a]
    assert len(fixed) == F.p


def test_f4_generator_square():
    F4 = finite_field(4)
    g = F4.generator()
    assert (g * g).value == F4.coerce((1, 1))  # g^2 = g + 1 modulo x^2 + x + 1
    assert str(g * g) == "g+1"
    assert g ** 4 == g
    assert F4.zero() ** (4 ** 3) == F4.zero()


def test_char_two_addition():
    F2 = finite_field(2)
    one = F2.one()
    assert (one + one).is_zero()


def test_rational_arithmetic():
    a = QQ.scalar(Fraction(2, 4))
    b = QQ.scalar(Fraction(1, 4))
    assert (a + b).value == Fraction(3, 4)
    assert str(a + b) == "3/4"
    assert (a / b).value == 2
    with pytest.raises(NotInvertible):
        QQ.zero().inverse()


@given(
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
)
def test_rational_scalar_matches_fraction(x, y):
    a, b = QQ.scalar(x), QQ.scalar(y)
    assert (a + b).value == x + y
    assert (a * b).value == x * y
    assert (-a).value == -x
    assert (a - b).value == QQ.sub(x, y) == x - y
    # canonical form: positive denominator, reduced
    v = (a + b).value
    assert v.denominator > 0
    from math import gcd

    assert gcd(v.numerator, v.denominator) == 1


@pytest.mark.parametrize(
    "D",
    [IntegersMod(m) for m in range(2, 13)] + [finite_field(q) for q in (2, 3, 4, 5, 8, 9)],
    ids=str,
)
def test_sub_is_add_of_neg(D):
    """Each domain's direct sub agrees with a + (-b) on every pair."""
    pairs = list(product(D.elements(), repeat=2))
    assert [D.sub(a, b) for a, b in pairs] == [D.add(a, D.neg(b)) for a, b in pairs]


def test_zmod_arithmetic():
    Z4 = IntegersMod(4)
    assert Z4.scalar(7).value == 3
    assert Z4.scalar(3).inverse().value == 3
    with pytest.raises(NotInvertible):
        Z4.scalar(2).inverse()
    assert str(Z4.scalar(2)) == "2 mod 4"
    assert Z4.parse_value("2 mod 4") == 2
    assert not Z4.is_field
    assert IntegersMod(5).is_field


def test_domain_mismatch():
    F2, F3 = finite_field(2), finite_field(3)
    with pytest.raises(DomainMismatch):
        F2.one() + F3.one()
    with pytest.raises(DomainMismatch):
        QQ.one() * IntegersMod(4).one()
    with pytest.raises(DomainMismatch):
        F2.one() / finite_field(4).one()


def test_descriptor_validation():
    with pytest.raises(ValueError):
        FiniteField(4)  # not prime
    with pytest.raises(ValueError):
        FiniteField(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        FiniteField(2, 2, (1, 1, 2))  # not monic after reduction
    with pytest.raises(ValueError):
        FiniteField(2, 4, (1, 1, 1, 0, 1))  # divisible by x^2 + x + 1
    with pytest.raises(UnsupportedDomain):
        FiniteField(2, 5, (1, 0, 1, 0, 0, 1))
    assert not is_prime(1)


def test_descriptor_json_round_trip():
    F9 = finite_field(9)
    d = F9.to_json_dict()
    assert d == {"p": 3, "k": 2, "poly": [1, 0, 1]}
    assert field_from_json_dict(d) == F9


@pytest.mark.parametrize("F", [*SMALL_FIELDS, F27], ids=str)
def test_format_parse_round_trip(F):
    for a in F.elements():
        assert F.parse_value(F.format_value(a)) == a
    assert len({F.format_value(a) for a in F.elements()}) == F.q


def test_scalar_power_and_coercion():
    F8 = finite_field(8)
    g = F8.generator()
    assert g ** 7 == F8.one()  # multiplicative order divides 7
    assert g ** -1 == g.inverse()
    assert F8.scalar([1, 1, 0, 1]).value == F8.scalar(0).value  # reduce by x^3+x+1


# -- the int representation -----------------------------------------------------

TABLE_FIELDS = [finite_field(q) for q in (4, 8, 9, 16)] + [F27]


def _vec(F, v):
    """The coefficient vector of raw value v: base-p digits, lowest first."""
    return [v // F.p ** i % F.p for i in range(F.k)]


def _raw(F, vec):
    vec = list(vec) + [0] * (F.k - len(vec))
    return sum(c * F.p ** i for i, c in enumerate(vec))


def _defined_mul(F, a, b):
    return _raw(F, _pmod(_pmul(_vec(F, a), _vec(F, b), F.p), F.poly, F.p))


@pytest.mark.parametrize("F", TABLE_FIELDS, ids=str)
def test_table_arithmetic_matches_polynomial_definition(F):
    F = FiniteField(F.p, F.k, F.poly)
    assert "_tables" not in vars(F)  # nothing is built before the first product
    els = range(F.q)
    for a in els:
        assert F.neg(a) == _raw(F, [-c % F.p for c in _vec(F, a)])
        for b in els:
            assert F.add(a, b) == _raw(F, [(x + y) % F.p for x, y in zip(_vec(F, a), _vec(F, b))])
            assert F.mul(a, b) == _defined_mul(F, a, b)
        if a:
            assert [b for b in els if _defined_mul(F, a, b) == 1] == [F.inv(a)]
    assert F._tables is not None


def test_elements_keep_coefficient_order():
    F4, F9 = finite_field(4), finite_field(9)
    assert [F4.format_value(v) for v in F4.elements()] == ["0", "g", "1", "g+1"]
    assert [F9.format_value(v) for v in F9.elements()] == [
        "0", "g", "2g", "1", "g+1", "2g+1", "2", "g+2", "2g+2",
    ]
    assert F9.elements() != list(range(9))
    for F in TABLE_FIELDS:
        assert sorted(F.elements()) == list(range(F.q))
        assert [F.coerce(t) for t in product(range(F.p), repeat=F.k)] == F.elements()


def test_large_field_computes_without_tables():
    F = FiniteField(257, 2, (254, 0, 1))  # x^2 - 3: 3 is not a square mod 257
    rng = random.Random(3)
    for a in [1, 256, 257, F.q - 1] + [rng.randrange(1, F.q) for _ in range(40)]:
        b = rng.randrange(F.q)
        assert F.mul(a, F.inv(a)) == F.one_raw
        assert F.mul(a, b) == _defined_mul(F, a, b)
        assert F.add(a, F.neg(a)) == 0
        assert F.parse_value(F.format_value(a)) == a
    assert F._tables is None
    assert str(F.generator() ** 2) == "3"


def test_int_coercion_contract():
    F4, F5 = finite_field(4), finite_field(5)
    assert [F4.coerce(v) for v in range(4)] == [0, 1, 2, 3]  # ints 0..q-1 are raw values
    assert F4.scalar(2) == F4.generator()
    assert [F5.coerce(v) for v in (7, -1, 5)] == [2, 4, 0]  # a prime field reduces mod p
    for v in (4, -1, 17):
        with pytest.raises(DomainMismatch):
            F4.coerce(v)
    assert F4.scalar((1, 1)) == F4.scalar([1, 1]) == F4.generator() ** 2
    assert F4.scalar((0, 0, 1)) == F4.generator() ** 2  # reduced by x^2 + x + 1
    assert F4.coerce(F4.generator()) == 2
    with pytest.raises(DomainMismatch):
        F4.coerce(finite_field(2).one())
