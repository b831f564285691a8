import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from infdilog.fields import GF, QQ, FieldMismatchError, PrimeField
from infdilog.series import TruncatedSeries


def test_rational_addition_example():
    assert QQ.element(Fraction(1, 2)) + QQ.element(Fraction(1, 3)) == QQ.element(Fraction(5, 6))


def test_prime_field_inverse_examples():
    assert GF(5).element(3).inverse() == GF(5).element(2)
    assert GF(7).element(Fraction(1, 2)) == GF(7).element(4)


def test_canonical_form_is_idempotent():
    a = QQ.element(Fraction(6, 4))
    b = QQ.element(a)
    assert a == b == QQ.element(Fraction(3, 2))
    assert a.value.denominator == 2
    # negative denominators normalize to a positive one
    assert QQ.element(Fraction(3, -6)).value == Fraction(-1, 2)
    # reduce is the one canonical-form method: an int over QQ becomes an equal Fraction,
    # a Fraction comes back as it is, and GF(p) reduces a Fraction through 1/denominator
    assert type(QQ.reduce(-3)) is Fraction and QQ.reduce(-3) == -3
    half = Fraction(1, 2)
    assert QQ.reduce(half) is half
    assert GF(7).reduce(Fraction(-3, 2)) == -3 * pow(2, -1, 7) % 7 == 2
    assert GF(7).reduce(-1) == 6 and GF(7).reduce(3 * 5) == 1
    with pytest.raises(ZeroDivisionError):
        GF(7).reduce(Fraction(1, 14))


def test_inexact_scalars_are_refused():
    for field in (QQ, GF(5)):
        for value in (2.5, 0.1, 2.0, "3", None):
            with pytest.raises(TypeError):
                field.element(value)
        with pytest.raises(TypeError):
            TruncatedSeries.from_coeffs(field, [2.5, 1])
        assert field.element(Fraction(5, 2)) == field.element(5) / 2


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.one / QQ.zero
    with pytest.raises(ZeroDivisionError):
        GF(5).zero.inverse()
    with pytest.raises(ZeroDivisionError):
        GF(5).element(Fraction(1, 5))


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        QQ.one + GF(5).one
    with pytest.raises(FieldMismatchError):
        GF(5).one * GF(7).one
    assert QQ.one != GF(5).one


def test_prime_validation():
    for bad in (2, 4, 9, 1, 0, -3, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)
    with pytest.raises(ValueError):
        PrimeField(1 << 64)
    with pytest.raises(ValueError, match="4 is not prime"):
        PrimeField(4)
    assert GF(3).p == 3
    assert GF(13) is GF(13)


def test_random_element_contracts():
    rng = random.Random(0)
    for _ in range(200):
        a = QQ.random_element(rng, 10)
        assert abs(a.value.numerator) <= 10  # reduction only shrinks the numerator
        assert 1 <= a.value.denominator <= 10
    rng = random.Random(0)
    b = GF(5).random_element(rng)
    assert 0 <= b.value < 5
    # determinism: identical stream state gives identical elements
    assert QQ.random_element(random.Random(7), 10) == QQ.random_element(random.Random(7), 10)


def test_pow_and_negation():
    a = QQ.element(Fraction(2, 3))
    assert a ** 3 == QQ.element(Fraction(8, 27))
    assert a ** -1 == QQ.element(Fraction(3, 2))
    assert (-GF(5).element(2)).value == 3
    assert GF(5).element(2) ** -2 == GF(5).element(4)


def test_field_axioms_random_triples():
    # associativity, distributivity and inverses at 1000 random triples per field
    rng = random.Random(1234)
    fields = (QQ, GF(5), GF(13))
    for _ in range(1000):
        field = fields[rng.randrange(len(fields))]
        a = field.random_element(rng, 20)
        b = field.random_element(rng, 20)
        c = field.random_element(rng, 20)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == field.one


@given(st.fractions(), st.fractions())
def test_rational_commutativity(x, y):
    a, b = QQ.element(x), QQ.element(y)
    assert a + b == b + a
    assert a * b == b * a


@given(st.integers(0, 12), st.integers(0, 12))
def test_prime_field_sub_add_roundtrip(x, y):
    field = GF(13)
    a, b = field.element(x), field.element(y)
    assert (a - b) + b == a


def test_int_coercion_in_operations():
    assert QQ.element(Fraction(1, 2)) + 1 == QQ.element(Fraction(3, 2))
    assert 2 * GF(7).element(4) == GF(7).element(1)
    assert 1 / GF(7).element(2) == GF(7).element(4)


# Every binary operator of FieldElement and TruncatedSeries, with x on one side and v on the other.
BINARY = {
    "x + v": lambda x, v: x + v,
    "v + x": lambda x, v: v + x,
    "x - v": lambda x, v: x - v,
    "v - x": lambda x, v: v - x,
    "x * v": lambda x, v: x * v,
    "v * x": lambda x, v: v * x,
    "x / v": lambda x, v: x / v,
    "v / x": lambda x, v: v / x,
}

OPERAND_KINDS = ("int", "Fraction", "same-field element", "other-field element",
                 "bool", "float", "str", "None")


def _operand(field, kind):
    """An operand of this kind in field: (operand, its rational value or the error it raises)."""
    other = GF(5) if field is QQ else QQ
    return {
        "int": (-3, Fraction(-3)),
        "Fraction": (Fraction(5, 4), Fraction(5, 4)),
        "same-field element": (field.element(Fraction(2, 3)), Fraction(2, 3)),
        "other-field element": (other.element(2), FieldMismatchError),
        "bool": (True, TypeError),
        "float": (2.0, TypeError),
        "str": ("2", TypeError),
        "None": (None, TypeError),
    }[kind]


@pytest.mark.parametrize("kind", OPERAND_KINDS)
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_one_operand_rule_for_elements_and_series(field, kind):
    """Field.element, from_coeffs and every binary operator accept exactly the same operands."""
    v, expected = _operand(field, kind)
    x = field.element(Fraction(3, 2))
    s = TruncatedSeries.from_coeffs(field, [Fraction(3, 2), 1, -2])
    if isinstance(expected, Fraction):
        assert field.element(v) == field.element(expected) == v
        assert TruncatedSeries.from_coeffs(field, [1, v]) == TruncatedSeries.from_coeffs(field, [1, expected])
        constant = TruncatedSeries.constant(field, expected, s.precision)
        for name, op in BINARY.items():
            # elements against rational arithmetic, series against the constant series
            assert op(x, v) == field.element(op(Fraction(3, 2), expected)), name
            assert op(s, v) == op(s, constant), name
        return
    with pytest.raises(expected):
        field.element(v)
    with pytest.raises(expected):
        TruncatedSeries.from_coeffs(field, [1, v])
    for op in BINARY.values():
        for operand in (x, s):
            with pytest.raises(expected):
                op(operand, v)
    assert x != v and v != x and s != v


def test_equal_scalars_hash_equal():
    assert 1 in {QQ.element(1)}
    assert QQ.element(Fraction(1, 2)) in {Fraction(1, 2)}
    assert GF(7).element(3) in {3: 0}
    assert hash(GF(7).element(10)) == hash(3)
    # the one exception: an int outside [0, p) equals its residue but hashes apart
    assert 10 == GF(7).element(3) and hash(10) != hash(GF(7).element(3))


def test_str_forms():
    assert str(QQ.element(Fraction(-1, 4))) == "-1/4"
    assert str(GF(11).element(13)) == "2"
