"""The two coefficient backends: canonical raw storage, and reduction mod p as an oracle.

Series over QQ hold Fractions and series over GF(p) hold least residues.
Reducing p-integral rational inputs mod p must commute with every series
operation and with seed mutation, which ties the prime-field fast path to the
rational one through an independent residue map.
"""

import random
from fractions import Fraction

from infdilog.bloch import WedgeLedger
from infdilog.cluster import InvalidPointError, YSeed, builtin_pattern
from infdilog.fields import GF, QQ
from infdilog.series import TruncatedSeries, exp_t, log_circ, random_series


def residue(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p


def reduce_mod(s: TruncatedSeries, p: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs(GF(p), [residue(c, p) for c in s.coeffs])


def p_integral_series(rng: random.Random, p: int, precision: int, unit: bool = True) -> TruncatedSeries:
    """Random rational coefficients with denominators prime to p; a p-adic unit if asked."""
    coeffs = []
    for i in range(precision):
        while True:
            num, den = rng.randint(-30, 30), rng.randint(1, 30)
            if den % p and not (i == 0 and unit and num % p == 0):
                break
        coeffs.append(Fraction(num, den))
    return TruncatedSeries.from_coeffs(QQ, coeffs)


def test_reduction_mod_p_commutes_with_series_ops():
    rng = random.Random(5)
    for p in (5, 7, 11):
        for precision in range(1, p + 1):
            for _ in range(3):
                a = p_integral_series(rng, p, precision)
                b = p_integral_series(rng, p, precision, unit=False)
                u = p_integral_series(rng, p, precision, unit=False)
                u = u - u.coeff(0)
                ar, br, ur = reduce_mod(a, p), reduce_mod(b, p), reduce_mod(u, p)
                assert reduce_mod(a * b, p) == ar * br
                assert reduce_mod(a.invert(), p) == ar.invert()
                assert reduce_mod(log_circ(a), p) == log_circ(ar)
                assert reduce_mod(exp_t(u), p) == exp_t(ur)


def test_reduction_mod_p_commutes_with_mutation():
    rng = random.Random(6)
    compared = 0
    for name in ("A2", "B2"):
        matrix, _ = builtin_pattern(name)
        for p in (5, 7, 11):
            for precision in (1, 2, 4, p):
                for _ in range(10):
                    point = tuple(p_integral_series(rng, p, precision) for _ in range(matrix.n))
                    k = rng.randrange(matrix.n)
                    try:
                        reduced = YSeed(matrix, tuple(reduce_mod(y, p) for y in point)).mutate(k)
                    except InvalidPointError:
                        continue  # 1 + y_k vanishes mod p: not p-integral after mutation
                    rational = YSeed(matrix, point).mutate(k)
                    assert rational.matrix == reduced.matrix
                    assert tuple(reduce_mod(y, p) for y in rational.ys) == reduced.ys
                    compared += 1
    assert compared >= 200


def assert_canonical(s: TruncatedSeries) -> None:
    p = s.field.characteristic
    for c in s.coeffs:
        if p == 0:
            assert type(c) is Fraction, (s, c)
        else:
            assert type(c) is int and 0 <= c < p, (s, c)


def test_coefficients_stay_canonical_after_every_op():
    rng = random.Random(7)
    for field, scalar in ((QQ, Fraction(-2, 3)), (GF(7), 5)):
        n = 5
        a = random_series(field, n, rng, 10) + 1
        while not a.is_unit:
            a = a + 1
        b = TruncatedSeries.from_coeffs(field, [3, -1, 2])  # ints in, padded with zeros
        b = b.with_precision(n)
        zero = TruncatedSeries.zero(field, n)
        one = TruncatedSeries.one(field, n)
        u = log_circ(a)
        ledger = WedgeLedger([(1, a, one + b)])
        results = [
            a, b, zero, one, TruncatedSeries.constant(field, scalar, n),
            a + b, a - b, -a, -zero, 2 + a, 1 - a, a * b, b * a, zero * zero,
            a * scalar, a * 3, scalar * a, a.invert(), b.invert(), a / b, 1 / a,
            a ** 0, a ** 3, a ** -2, a.derivative(), one.derivative(), a.scale(scalar),
            log_circ(a), log_circ(one), log_circ(TruncatedSeries.constant(field, 2, n)),
            exp_t(u), exp_t(zero), a.truncate_below(2), a.with_precision(n + 2),
            a.with_precision(2), *(TruncatedSeries(field, log) for log in ledger.logged()[0][1:]),
        ]
        for s in results:
            assert_canonical(s)
