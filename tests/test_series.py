import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from infdilog.fields import GF, QQ, FieldMismatchError
from infdilog.series import (
    NonUnitError,
    PrecisionError,
    TruncatedSeries,
    exp_t,
    log_circ,
    random_series,
)


def q_series(*coeffs, precision=None):
    return TruncatedSeries.from_coeffs(QQ, [Fraction(c) for c in coeffs], precision)


def derivative(s):
    """Formal d/dt of a series, exact through degree N - 2, from its coefficients."""
    return TruncatedSeries.from_coeffs(s.field, [i * c for i, c in enumerate(s.coeffs[1:], 1)],
                                       max(s.precision - 1, 1))


def test_ring_arithmetic_examples():
    assert q_series(2, 1) * q_series(3, 1) == q_series(6, 5)
    assert q_series(1, 1, 0) * q_series(1, -1, 0) == q_series(1, 0, -1)
    a = q_series(3, -2, 5)
    assert (a - a).is_zero()
    assert a.__rsub__(a) is NotImplemented  # only scalar - series reaches __rsub__


def test_invert_examples():
    assert q_series(2, 1).invert() == q_series(Fraction(1, 2), Fraction(-1, 4))
    f5 = TruncatedSeries.from_coeffs(GF(5), [2, 1])
    assert f5.invert() == TruncatedSeries.from_coeffs(GF(5), [3, 1])
    one = TruncatedSeries.one(QQ, 4)
    assert one.invert() == one
    with pytest.raises(NonUnitError):
        q_series(0, 1).invert()


def test_invert_is_two_sided_and_antihomomorphic():
    rng = random.Random(2)
    one = TruncatedSeries.one(QQ, 5)
    for _ in range(100):
        a = random_series(QQ, 5, rng)
        b = random_series(QQ, 5, rng)
        if not (a.is_unit and b.is_unit):
            continue
        assert a * a.invert() == one
        assert a.invert() * a == one
        assert (a * b).invert() == b.invert() * a.invert()


def test_log_circ_examples():
    assert log_circ(q_series(2, 1, 0)) == q_series(0, Fraction(1, 2), Fraction(-1, 8))
    assert log_circ(q_series(7, 0, 0, 0)).is_zero()
    assert log_circ(q_series(-1, -1, 0)) == q_series(0, 1, Fraction(-1, 2))
    with pytest.raises(NonUnitError):
        log_circ(q_series(0, 1))


def test_exp_examples():
    assert exp_t(TruncatedSeries.zero(QQ, 3)) == TruncatedSeries.one(QQ, 3)
    assert exp_t(q_series(0, 1, 0)) == q_series(1, 1, Fraction(1, 2))
    assert exp_t(log_circ(q_series(2, 1, 0))) == q_series(1, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        exp_t(q_series(1, 1))


def test_log_homomorphism_thousand_pairs():
    # log_circ(ab) = log_circ(a) + log_circ(b), exactly, over both fields
    rng = random.Random(99)
    cases = 0
    while cases < 1000:
        field = (QQ, GF(13))[rng.randrange(2)]
        a = random_series(field, 6, rng)
        b = random_series(field, 6, rng)
        if not (a.is_unit and b.is_unit):
            continue
        assert log_circ(a * b) == log_circ(a) + log_circ(b)
        cases += 1


def test_exp_log_round_trips():
    rng = random.Random(5)
    for _ in range(200):
        a = random_series(QQ, 6, rng)
        if not a.is_unit:
            continue
        # unique decomposition: a = a(0) * exp(log_circ(a))
        assert exp_t(log_circ(a)) * a.constant_term() == a
        u = random_series(QQ, 6, rng)
        u = u - TruncatedSeries.constant(QQ, u.constant_term(), 6)
        c = QQ.random_element(rng)
        if not c:
            continue
        assert log_circ(exp_t(u) * c) == u


def power_sum_log_circ(a):
    """Reference log_circ: sum_{n>=1} (-1)^(n+1) u^n / n with u = a/a(0) - 1."""
    u = a * a.constant_term().inverse() - 1
    result = TruncatedSeries.zero(a.field, a.precision)
    power = u
    for n in range(1, a.precision):
        result = result + power * a.field.element(Fraction((-1) ** (n + 1), n))
        power = power * u
    return result


def power_sum_exp_t(u):
    """Reference exp_t: sum_{n>=0} u^n / n!."""
    result = TruncatedSeries.one(u.field, u.precision)
    term = TruncatedSeries.one(u.field, u.precision)
    for n in range(1, u.precision):
        term = term * u * u.field.element(Fraction(1, n))
        result = result + term
    return result


def test_log_and_exp_match_power_sums():
    rng = random.Random(17)
    cases = [(QQ, n) for n in range(1, 10)]
    cases += [(GF(p), n) for p in (7, 11) for n in range(1, p + 1)]
    for field, n in cases:
        units = 0
        while units < 12:
            a = random_series(field, n, rng)
            if not a.is_unit:
                continue
            assert log_circ(a) == power_sum_log_circ(a)
            u = a - TruncatedSeries.constant(field, a.constant_term(), n)
            assert exp_t(u) == power_sum_exp_t(u)
            units += 1
    # precision 1: the log of a constant is 0 and the exp of 0 is 1
    assert log_circ(q_series(5)) == q_series(0)
    assert exp_t(q_series(0)) == q_series(1)


def test_charp_precision_gate():
    f5 = GF(5)
    ok = TruncatedSeries.from_coeffs(f5, [2, 1], 5)
    log_circ(ok)  # N = p is allowed
    too_deep = TruncatedSeries.from_coeffs(f5, [2, 1], 6)
    with pytest.raises(PrecisionError):
        log_circ(too_deep)
    with pytest.raises(PrecisionError):
        exp_t(TruncatedSeries.from_coeffs(f5, [0, 1], 6))


def test_structure_ops():
    q = q_series(4, 3, 7)
    assert q.truncate_below(2) == q_series(4, 3, 0)
    assert q.coeff(2) == QQ.element(7)
    assert derivative(q) == q_series(3, 14)
    assert q.constant_term() == QQ.element(4)
    assert q_series(1, 3, 7).coeff(2) == QQ.element(7)
    with pytest.raises(PrecisionError):
        q.coeff(3)
    with pytest.raises(PrecisionError):
        q.truncate_below(4)


def test_derivative_of_constant_precision():
    assert derivative(q_series(5)).is_zero()
    assert derivative(q_series(5, 2)) == q_series(2)


def test_scale_action():
    s = q_series(4, 3)
    lam = QQ.element(Fraction(2))
    assert s.scale(lam) == q_series(4, 6)
    assert s.scale(1) == s
    mu = QQ.element(Fraction(1, 3))
    assert s.scale(lam).scale(mu) == s.scale(lam * mu)
    with pytest.raises(ValueError):
        s.scale(0)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_series_over_a_scalar_is_series_times_its_inverse(field, monkeypatch):
    s = random_series(field, 4, random.Random(3), 10)
    for c in (-3, Fraction(5, 4), field.element(Fraction(2, 3))):
        expected = s * (1 / field.element(c))
        with monkeypatch.context() as patched:
            patched.setattr(TruncatedSeries, "invert", None)  # no constant series is inverted
            assert s / c == expected
    for zero in (0, Fraction(0), field.zero):
        with pytest.raises(ZeroDivisionError):
            s / zero


def test_flatness():
    assert q_series(2, 1).is_flat
    assert not q_series(1, 1).is_flat
    assert not q_series(0, 1).is_flat


# The GF(p) constructor reduces its raws: 8 and -6 are 1 in GF(7), and 7 * 9000 + 1 = 63001
# squared overflows a 2-byte slot of the packed product.
UNREDUCED = (8, 1), (-6, 15)


def test_gfp_constructor_stores_least_residues():
    for raws in UNREDUCED:
        assert TruncatedSeries(GF(7), raws).nums == (1, 1)


def test_gfp_constructor_flatness_reads_the_residue():
    for raws in UNREDUCED:
        assert not TruncatedSeries(GF(7), raws).is_flat


def test_gfp_constructor_compares_and_prints_as_the_residue():
    canonical = TruncatedSeries(GF(7), (1, 1))
    for raws in UNREDUCED:
        y = TruncatedSeries(GF(7), raws)
        assert y == canonical and hash(y) == hash(canonical) and str(y) == "1 + 1*t"


def test_gfp_raws_above_p_do_not_carry_between_packed_slots():
    for raws in ((63001,) * 3, (7**6 + 1, 8, 1, 8)):
        y = TruncatedSeries(GF(7), raws)
        assert y * y == TruncatedSeries(GF(7), (1,) * len(raws)) ** 2


# Any other raw is refused: x % p keeps a Fraction or a float as it is, "%d" % 7 is the str "7", and True % 7 is
# the int 1, while Field.element refuses a bool.  A kept 1/2 would compare unequal to its residue 4 and, at N >= 3,
# raise struct.error in a packed product.
NON_INT_RAWS = [(Fraction(1, 2), 1), (1, Fraction(1, 2)), (Fraction(1, 2), 1, 0), (1, 2, Fraction(1, 2)),
                ("a", 1), ("%d", 1), (1, "%d", 0), (0.5, 1), (1, 1, 0.5), (True, 1), (1, 2, False)]


@pytest.mark.parametrize("raws", NON_INT_RAWS, ids=repr)
def test_gfp_constructor_refuses_non_int_raws(raws):
    with pytest.raises(TypeError):
        TruncatedSeries(GF(7), raws)


@pytest.mark.parametrize("raws", [(0.5, 1), ("1/2", 1), (1, None, 0), (True, 1), (1, 2, False)], ids=repr)
def test_qq_constructor_refuses_non_exact_raws(raws):
    """A float, a str, None or a bool is refused with TypeError over QQ, as over GF(p)."""
    with pytest.raises(TypeError, match="int or Fraction"):
        TruncatedSeries(QQ, raws)


def test_gfp_fraction_enters_through_from_coeffs():
    half = TruncatedSeries.from_coeffs(GF(7), [Fraction(1, 2), 1])
    assert half == TruncatedSeries(GF(7), (4, 1)) and half.nums == (4, 1)
    cubic = TruncatedSeries.from_coeffs(GF(7), [Fraction(1, 2), 1, 0])
    assert cubic * cubic == TruncatedSeries(GF(7), (2, 1, 1))  # (4 + t)^2 = 16 + 8t + t^2


def test_precision_and_field_mismatch():
    with pytest.raises(PrecisionError):
        q_series(1, 2) + q_series(1, 2, 3)
    with pytest.raises(FieldMismatchError):
        q_series(1, 2) + TruncatedSeries.from_coeffs(GF(5), [1, 2])
    assert q_series(1, 2) != q_series(1, 2, 0)  # unequal precision, no error on ==


def test_with_precision_pad_and_drop():
    s = q_series(1, 2)
    assert s.with_precision(4) == q_series(1, 2, 0, 0)
    assert s.with_precision(4).with_precision(2) == s
    with pytest.raises(PrecisionError):
        s.with_precision(0)


def test_pow():
    s = q_series(1, 1, 0)
    assert s ** 2 == q_series(1, 2, 1)
    assert s ** 0 == TruncatedSeries.one(QQ, 3)
    assert s ** -1 == s.invert()


def test_pow_matches_repeated_products():
    rng = random.Random(5)
    for field in (QQ, GF(11)):
        for precision in (1, 3, 5):
            unit = random_series(field, precision, rng)
            while not unit.is_unit:
                unit = random_series(field, precision, rng)
            non_unit = TruncatedSeries(field, (field.zero.value,) + unit.coeffs[1:])
            for exponent in range(-3, 10):
                expected = TruncatedSeries.one(field, precision)
                for _ in range(abs(exponent)):
                    expected = expected * (unit if exponent > 0 else unit.invert())
                assert unit ** exponent == expected
                if exponent >= 0:
                    expected = TruncatedSeries.one(field, precision)
                    for _ in range(exponent):
                        expected = expected * non_unit
                    assert non_unit ** exponent == expected
                else:
                    with pytest.raises(NonUnitError):
                        non_unit ** exponent


def _units(field, precision, rng, count):
    units = []
    while len(units) < count:
        series = random_series(field, precision, rng)
        if series.is_unit:
            units.append(series)
    return units


@pytest.mark.parametrize("field", [QQ, GF(5), GF(101)], ids=["QQ", "GF5", "GF101"])
def test_int_scalar_add_matches_the_fraction_path(field):
    """An int is added to coefficient 0 directly; a Fraction of the same value takes the general
    scalar path, so the two give equal series for either operand order and either sign."""
    p = field.characteristic or 5
    rng = random.Random(p)
    for precision in (1, 2, 3, 4):
        for y in (*_units(field, precision, rng, 3), TruncatedSeries.zero(field, precision)):
            for c in (-2 * p, -1, 0, 1, p, 10**12):
                f = Fraction(c)
                assert c + y == f + y and y + c == y + f, (c, y)
                assert y - c == y - f and c - y == f - y, (c, y)
                assert (c - y) + (y - c) == TruncatedSeries.zero(field, precision)
    y = _units(field, 2, rng, 1)[0]
    for refused in (lambda: True + y, lambda: y + True, lambda: y - False, lambda: True - y):
        with pytest.raises(TypeError):
            refused()


def test_pow_one_is_self_and_matches_products_and_invert():
    rng = random.Random(29)
    for field in (QQ, GF(5), GF(101)):
        for precision in (1, 2, 4):
            for y in _units(field, precision, rng, 3):
                assert y ** 1 is y
                assert y ** -1 == y.invert()
                for k in range(-3, 6):
                    expected = TruncatedSeries.one(field, precision)
                    for _ in range(abs(k)):
                        expected = expected * (y if k > 0 else y.invert())
                    assert y ** k == expected, (y, k)
    with pytest.raises(TypeError):
        q_series(1, 2) ** 1.0


def test_mul_refuses_another_field_or_precision_with_the_same_messages():
    with pytest.raises(PrecisionError, match="precision mismatch: 2 vs 3; re-truncate explicitly"):
        q_series(1, 2) * q_series(1, 2, 3)
    with pytest.raises(FieldMismatchError, match="series over distinct fields cannot be combined"):
        q_series(1, 2) * TruncatedSeries.from_coeffs(GF(5), [1, 2])
    with pytest.raises(FieldMismatchError):
        TruncatedSeries.from_coeffs(GF(5), [1, 2]) * TruncatedSeries.from_coeffs(GF(7), [1, 2, 3])


def test_text_format():
    assert str(q_series(Fraction(1, 2), Fraction(-1, 4))) == "1/2 + -1/4*t"
    assert str(q_series(1, 3, 7)) == "1 + 3*t + 7*t^2"
    assert str(TruncatedSeries.from_coeffs(GF(5), [2, 0, 4])) == "2 + 0*t + 4*t^2"


small_qq = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


@settings(max_examples=60)
@given(st.lists(small_qq, min_size=3, max_size=3), st.lists(small_qq, min_size=3, max_size=3))
def test_multiplication_commutes(xs, ys):
    a = TruncatedSeries.from_coeffs(QQ, xs)
    b = TruncatedSeries.from_coeffs(QQ, ys)
    assert a * b == b * a


@settings(max_examples=60)
@given(
    st.lists(small_qq, min_size=4, max_size=4),
    st.lists(small_qq, min_size=4, max_size=4),
    st.lists(small_qq, min_size=4, max_size=4),
)
def test_multiplication_associates_and_distributes(xs, ys, zs):
    a = TruncatedSeries.from_coeffs(QQ, xs)
    b = TruncatedSeries.from_coeffs(QQ, ys)
    c = TruncatedSeries.from_coeffs(QQ, zs)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
