import itertools
import random
from fractions import Fraction

import pytest

from infdilog import dilog, fields, verify
from infdilog.bloch import pentagon_terms
from infdilog.dilog import (
    CLOSED_FORM_PARAMS,
    li2p,
    li2p_via_lift,
    li_closed_form,
    li_direct,
    li_via_lift,
    pounds1,
)
from infdilog.fields import GF, QQ, FieldElement, PrimeField
from infdilog.series import NotFlatError, PrecisionError, TruncatedSeries, exp_t, log_circ, random_series

ALL_PARAMS = ((2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7))


def q_series(*coeffs, precision=None):
    return TruncatedSeries.from_coeffs(QQ, [Fraction(c) for c in coeffs], precision)


def qq(x):
    return QQ.element(Fraction(x))


def test_li_direct_hand_values():
    assert li_direct(2, 3, q_series(2, 1)) == qq(Fraction(-1, 8))
    assert li_direct(2, 3, q_series(Fraction(3, 2), Fraction(-1, 4))) == qq(Fraction(1, 72))
    assert li_direct(3, 4, q_series(5, 0, 3)) == QQ.zero  # u1 = 0 kills every monomial
    for m, w in ALL_PARAMS:
        assert li_direct(m, w, TruncatedSeries.constant(QQ, qq(7), m)) == QQ.zero


def test_li_closed_form_hand_values():
    assert li_closed_form(2, 3, qq(2), 1) == qq(Fraction(-1, 8))
    assert li_closed_form(2, 3, qq(Fraction(3, 4)), Fraction(1, 4)) == qq(Fraction(-2, 9))
    assert li_closed_form(3, 4, qq(5), 0, 3) == QQ.zero
    with pytest.raises(NotFlatError):
        li_closed_form(2, 3, qq(1), 1)
    with pytest.raises(ValueError):
        li_closed_form(4, 5, qq(2), 1)


def test_li_direct_validation():
    with pytest.raises(ValueError):
        li_direct(2, 4, q_series(2, 1))  # w < 2m fails
    with pytest.raises(ValueError):
        li_direct(1, 2, q_series(2, 1))
    with pytest.raises(NotFlatError):
        li_direct(2, 3, q_series(1, 1))
    with pytest.raises(ValueError):
        li_direct(2, 3, TruncatedSeries.from_coeffs(GF(5), [2, 1]))
    with pytest.raises(PrecisionError):
        li_direct(3, 4, q_series(2))


def test_oracle_agreement_200_points_each():
    rng = random.Random(2024)
    for m, w in CLOSED_FORM_PARAMS:
        count = 0
        while count < 200:
            a = random_series(QQ, m, rng)
            if not a.is_flat:
                continue
            direct = li_direct(m, w, a)
            closed = li_closed_form(m, w, a.coeff(0), *a.coeffs[1:])
            assert direct == closed, (m, w, str(a))
            count += 1


def test_li_direct_reads_argument_mod_tm():
    base = q_series(2, 5, 7)
    padded = q_series(2, 5, 7, 9, 11)
    for w in (4, 5):
        assert li_direct(3, w, base) == li_direct(3, w, padded)


def _li_direct_full_product(m, w, a):
    """Reference: li_direct as written, reading one coefficient of the whole product."""
    rep = a.with_precision(m).with_precision(w)
    u = log_circ(rep)
    inner = 1 - rep.constant_term() * exp_t(u.truncate_below(m))
    du = TruncatedSeries.from_coeffs(QQ, [i * c for i, c in enumerate(u.coeffs[1:w - m + 1], 1)], w)
    return (log_circ(inner) * du).coeff(w - 1)


@pytest.mark.parametrize("m, w", verify.PENTAGON_PARAMS)
def test_li_direct_matches_the_full_product(m, w):
    rng = random.Random(100 * m + w)
    compared = 0
    while compared < 40:
        # arguments of precision m to w, read mod t^m; heights with non-unit denominators
        a = random_series(QQ, rng.randint(m, w), rng, 12)
        if a.is_flat:
            assert li_direct(m, w, a) == _li_direct_full_product(m, w, a), (m, w, str(a))
            compared += 1


def test_li_via_lift_hand_values():
    assert li_via_lift(2, 3, q_series(2, 1, 0)) == qq(Fraction(-1, 8))
    assert li_via_lift(2, 3, q_series(2, 1, 7)) == qq(Fraction(-1, 8))
    assert li_via_lift(2, 3, q_series(5, 0, 0)) == QQ.zero
    with pytest.raises(PrecisionError):
        li_via_lift(2, 3, q_series(2, 1))


def test_lift_independence_all_params():
    rng = random.Random(77)
    for m, w in ALL_PARAMS:
        for _ in range(12):
            base = random_series(QQ, m, rng)
            if not base.is_flat:
                continue
            reference = li_via_lift(m, w, base.with_precision(w))
            assert reference == li_direct(m, w, base)
            for _ in range(10):
                tail = [QQ.random_element(rng) for _ in range(w - m)]
                lift = TruncatedSeries.from_coeffs(QQ, list(base.coeffs) + tail)
                assert li_via_lift(m, w, lift) == reference


def test_pentagon_hand_witness():
    a, b = q_series(2, 1), q_series(3, 1)
    values = [li_direct(2, 3, arg) for _, arg in pentagon_terms(a, b)]
    expected = [Fraction(-1, 8), Fraction(-1, 72), Fraction(1, 72),
                Fraction(-2, 9), Fraction(-1, 8)]
    assert values == [qq(e) for e in expected]
    total = QQ.zero
    for (sign, _), value in zip(pentagon_terms(a, b), values):
        total = total + sign * value
    assert total == QQ.zero


def test_pentagon_randomized():
    rng = random.Random(6)
    for m, w in ALL_PARAMS:
        hits = 0
        while hits < 20:
            a = random_series(QQ, m, rng)
            b = random_series(QQ, m, rng)
            if not (a.is_flat and b.is_flat) or a.constant_term() == b.constant_term():
                continue
            total = QQ.zero
            for sign, arg in pentagon_terms(a, b):
                total = total + sign * li_direct(m, w, arg)
            assert total == QQ.zero, (m, w, str(a), str(b))
            hits += 1


def test_scale_weight_homogeneity():
    rng = random.Random(13)
    for m, w in ALL_PARAMS:
        hits = 0
        while hits < 25:
            a = random_series(QQ, m, rng)
            lam = QQ.random_element(rng)
            if not a.is_flat or not lam:
                continue
            assert li_direct(m, w, a.scale(lam)) == lam ** w * li_direct(m, w, a)
            hits += 1


def test_pounds1_values():
    f5 = GF(5)
    assert pounds1(f5.zero) == f5.zero
    assert pounds1(f5.element(2)) == f5.element(4)
    assert pounds1(f5.element(3)) == f5.element(3)
    assert pounds1(f5.element(4)) == f5.element(4)
    with pytest.raises(ValueError):
        pounds1(QQ.element(2))



def _pounds1_sum(s):
    """Reference oracle: sum_{1 <= i < p} s^i / i, term by term."""
    total, power = s.field.zero, s.field.one
    for i in range(1, s.field.characteristic):
        power = power * s
        total = total + power / i
    return total


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 43, 101))
def test_pounds1_matches_power_sum_everywhere(p):
    field = GF(p)
    for x in range(p):
        s = field.element(x)
        assert pounds1(s) == _pounds1_sum(s), (p, x)


def test_pounds1_is_lift_independent():
    for p in (3, 13, 101):
        field = GF(p)
        for x in range(p):
            expected = pounds1(field.element(x))
            for k in (-p, -2, -1, 1, 3, p + 1):
                assert pounds1(field.element(x + k * p)) == expected, (p, x, k)
                # the closed form read on a lift that is not the least residue
                assert pounds1(FieldElement(field, x + k * p)) == expected, (p, x, k)


def test_pounds1_at_word_size_prime():
    field = GF(2**61 - 1)
    assert pounds1(field.zero) == field.zero
    assert pounds1(field.one) == field.zero
    for x in (2, 3, 12345, 2**40 + 7, 2**61 - 3):
        s = field.element(x)
        assert pounds1(s) == pounds1(1 - s)
        # pounds1(s) = -s^p pounds1(1/s): reverse the sum with i -> p - i
        assert pounds1(s) == -(s ** field.p) * pounds1(s.inverse())


def test_pounds1_makes_no_inversion(monkeypatch):
    calls = []
    original = FieldElement.inverse

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FieldElement, "inverse", counting)
    field = GF(101)
    _pounds1_sum(field.element(2))
    assert calls, "the counter must see the power sum's inversions"
    calls.clear()
    for x in range(101):
        pounds1(field.element(x))
    pounds1(GF(2**61 - 1).element(12345))
    assert calls == []

def test_li2p_hand_values():
    f5 = GF(5)
    assert li2p(TruncatedSeries.from_coeffs(f5, [2, 1])) == f5.element(3)
    assert li2p(TruncatedSeries.from_coeffs(f5, [3, 1])) == f5.element(2)
    assert li2p(TruncatedSeries.from_coeffs(f5, [2, 0])) == f5.zero
    with pytest.raises(NotFlatError):
        li2p(TruncatedSeries.from_coeffs(f5, [1, 1]))
    with pytest.raises(ValueError):
        li2p(q_series(2, 1))


def _li2p_reference(y):
    """Reference: the element formula (a / (s(1 - s)))^p * pounds1(s)."""
    s, a = y.coeff(0), y.coeff(1)
    return (a / (s * (1 - s))) ** y.field.characteristic * pounds1(s)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 43, 101))
def test_li2p_matches_the_element_formula_everywhere(p):
    field = GF(p)
    for s, a in itertools.product(range(p), repeat=2):
        y = TruncatedSeries(field, (s, a))
        if s in (0, 1):
            with pytest.raises(NotFlatError):
                li2p(y)
            continue
        got = li2p(y)
        assert got.field is field and 0 <= got.value < p, (p, s, a)
        assert got == _li2p_reference(y), (p, s, a)


def test_li2p_matches_the_element_formula_at_a_word_size_prime():
    field = GF(2**61 - 1)
    rng = random.Random(61)
    for _ in range(20):
        y = TruncatedSeries(field, (rng.randrange(2, field.p), rng.randrange(field.p)))
        assert li2p(y) == _li2p_reference(y), y


def test_cold_and_warm_memos_give_the_same_values():
    """A field of its own starts with empty memos; its values equal the shared GF(101)'s."""
    cold = PrimeField(101)
    assert not cold._inv and not cold.memos
    points = [(s, a) for s in range(2, 101) for a in range(101)]

    def values(field):
        return ([li2p(TruncatedSeries(field, point)).value for point in points]
                + [pounds1(FieldElement(field, x)).value for x in range(101)]
                + [field.inv(x) for x in range(1, 101)])

    first = values(cold)
    assert set(cold.memos) == {dilog._pounds1, dilog._li2p_weight}
    assert first == values(cold) == values(GF(101))


def _assert_memos_hold_their_residues(field):
    """At most p keys per memo, each a least residue, each value recomputed without a memo."""
    p = field.p
    memos = {"inv": field._inv, **{fn.__name__: memo for fn, memo in field.memos.items()}}
    assert set(memos) <= {"inv", "_pounds1", "_li2p_weight"}
    for name, memo in memos.items():
        assert len(memo) <= p and all(type(x) is int and 0 <= x < p for x in memo), (p, name)
    for x, value in field._inv.items():
        assert x * value % p == (x != 0), (p, x)
    pounds = {x: sum(pow(x, i, p) * pow(i, -1, p) for i in range(1, p)) % p
              for x in set(memos.get("_pounds1", ())) | set(memos.get("_li2p_weight", ()))}
    for x, value in memos.get("_pounds1", {}).items():
        assert value == pounds[x], (p, x)
    for s, value in memos.get("_li2p_weight", {}).items():
        assert value == pounds[s] * pow(s * (1 - s), -1, p) % p, (p, s)


def test_memos_hold_at_most_p_least_residues_after_exhaustive_checks():
    assert verify.check_cluster_charp("B2", 7).passed
    assert verify.check_named_identity("four_term", 43).passed
    assert verify.check_named_identity("a2_pentagon_substitution", 43).passed
    assert verify.check_cluster_charp("A2", 101, trials=20).passed
    for p in (7, 43, 101):
        assert GF(p).memos, p
        _assert_memos_hold_their_residues(GF(p))
    # pounds1 reads a lift that is not the least residue under its least residue's key
    field = GF(43)
    for x in range(43):
        for k in (-2, -1, 1, 3):
            assert pounds1(FieldElement(field, x + k * 43)) == pounds1(field.element(x)), (x, k)
    _assert_memos_hold_their_residues(field)
    assert len(field.memos[dilog._pounds1]) == 43


def test_residue_memos_stop_growing_at_the_cap(monkeypatch):
    """Past _MEMO_CAP keys a memo computes its value and stores nothing; every value stays right."""
    monkeypatch.setattr(fields, "_MEMO_CAP", 8)
    field = PrimeField(2**61 - 1)
    p, rng = field.p, random.Random(33)
    points = [(rng.randrange(2, p), rng.randrange(p)) for _ in range(100)]
    assert len({s for s, _ in points}) == 100
    for _ in range(2):  # the second pass reads the stored keys back
        for s, a in points:
            assert field.inv(s) == pow(s, -1, p)
            weight = dilog._pounds1(field, s) * pow(s * (1 - s), -1, p) % p
            assert li2p(TruncatedSeries(field, (s, a))).value == a * weight % p
    assert set(field.memos) == {dilog._pounds1, dilog._li2p_weight}
    for memo in (field._inv, *field.memos.values()):
        assert len(memo) == 8
    assert all(x * y % p == 1 for x, y in field._inv.items())
    assert all(y == dilog._pounds1(field, x) for x, y in field.memos[dilog._pounds1].items())


def test_li2p_involution_witness():
    f5 = GF(5)
    y = TruncatedSeries.from_coeffs(f5, [2, 1])
    assert y.invert() == TruncatedSeries.from_coeffs(f5, [3, 1])
    assert li2p(y) + li2p(y.invert()) == f5.zero


def test_li2p_via_lift_exhaustive_small_primes():
    for p in (3, 5, 7):
        field = GF(p)
        for s, a in itertools.product(range(p), repeat=2):
            if s in (0, 1):
                continue
            dual = TruncatedSeries.from_coeffs(field, [s, a])
            lift = dual.with_precision(p)
            assert li2p_via_lift(lift) == li2p(dual)
        assert li2p_via_lift(TruncatedSeries.from_coeffs(field, [2], p)) == field.zero


def test_li2p_via_lift_precision_gate():
    f5 = GF(5)
    with pytest.raises(PrecisionError):
        li2p_via_lift(TruncatedSeries.from_coeffs(f5, [2, 1], 4))
    with pytest.raises(PrecisionError):
        li2p_via_lift(TruncatedSeries.from_coeffs(f5, [2, 1], 6))


def test_elementary_relation_exhaustive():
    for p in (3, 5, 7, 11, 13):
        field = GF(p)
        for s, a in itertools.product(range(p), repeat=2):
            if s in (0, 1):
                continue
            z = TruncatedSeries.from_coeffs(field, [s, a])
            assert li2p(1 - z) + li2p(z) == field.zero


def test_involution_relation_exhaustive():
    for p in (3, 5, 7, 11, 13):
        field = GF(p)
        for s, a in itertools.product(range(p), repeat=2):
            if s in (0, 1):
                continue
            y = TruncatedSeries.from_coeffs(field, [s, a])
            assert li2p(y.invert()) + li2p(y) == field.zero
