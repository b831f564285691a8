"""The two coefficient backends: normalised vectors, a Fraction oracle, and reduction mod p.

Series over QQ hold int numerators over one positive common denominator with
gcd 1; series over GF(p) hold least residues over the denominator 1.  The
vector kernels are checked three ways: against the coefficient-by-coefficient
Fraction loops below (the reference, kept only here), for the normalised form
after every operation, and by reducing p-integral rational inputs mod p, which
must commute with every series operation and with seed mutation.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from infdilog.bloch import WedgeLedger
from infdilog.cluster import InvalidPointError, YSeed, builtin_pattern
from infdilog.fields import GF, QQ, Field, PrimeField, _is_prime
from infdilog.series import TruncatedSeries, exp_t, log_circ, random_series


# -- reference: one raw value per coefficient, reduced by the field ----------

def ref_mul(field, a, b):
    n = len(a)
    out = [field.zero.value] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b[: n - i]):
            out[i + j] += x * y
    return tuple(map(field.reduce, out))


def ref_invert(field, a):
    inv0 = field.inv(a[0])
    out = [inv0]
    for k in range(1, len(a)):
        acc = sum((a[j] * out[k - j] for j in range(1, k + 1)), field.zero.value)
        out.append(field.reduce(-inv0 * acc))
    return tuple(out)


def ref_log_circ(field, a):
    n = len(a)
    derivative = tuple(field.reduce(a[i] * i) for i in range(1, n)) + (field.zero.value,)
    ratio = ref_mul(field, derivative, ref_invert(field, a))
    return (field.zero.value,) + tuple(field.reduce(ratio[k - 1] * field.inv(k)) for k in range(1, n))


def ref_exp_t(field, u):
    out = [field.one.value]
    for k in range(1, len(u)):
        acc = sum((field.reduce(j * u[j]) * out[k - j] for j in range(1, k + 1)), field.zero.value)
        out.append(field.reduce(acc * field.inv(k)))
    return tuple(out)


def oracle_inputs(field, rng, top):
    """(precision, a, b, u): a a unit, u(0) = 0, at N = 1..top and heights 1..10^6.

    Sparse vectors, negative constants, one and zero are among them.
    """
    dens = (lambda h: rng.randint(1, h)) if field.characteristic == 0 else (lambda h: 1)
    for n in range(1, top + 1):
        one, zero = TruncatedSeries.one(field, n), TruncatedSeries.zero(field, n)
        yield n, one, zero, zero
        yield n, one, one, zero
        for height in (1, 10, 1000, 10**6):
            for shape in ("dense", "sparse", "negative"):
                def draw(constant=None):
                    coeffs = []
                    for i in range(n):
                        if shape == "sparse" and i and rng.random() < 0.6:
                            coeffs.append(0)
                        else:
                            coeffs.append(Fraction(rng.randint(-height, height), dens(height)))
                    if constant is not None:
                        coeffs[0] = constant
                    return TruncatedSeries.from_coeffs(field, coeffs)

                a = TruncatedSeries.zero(field, n)
                while not a.is_unit:  # a negative constant may still vanish mod p
                    a = draw(-Fraction(rng.randint(1, height), dens(height)) if shape == "negative" else None)
                yield n, a, draw(), draw(0)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(11), GF(13)], ids=["QQ", "GF3", "GF11", "GF13"])
def test_kernels_match_the_fraction_loops(field):
    """Every kernel against the Fraction loops, at N = 1..11 over QQ and N = 1..p over GF(p)."""
    rng = random.Random(11)
    top = field.characteristic or 11
    compared = 0
    for n, a, b, u in oracle_inputs(field, rng, top):
        for result, expected in (
            (a * b, ref_mul(field, a.coeffs, b.coeffs)),
            (b * a, ref_mul(field, b.coeffs, a.coeffs)),
            (a.invert(), ref_invert(field, a.coeffs)),
            (log_circ(a), ref_log_circ(field, a.coeffs)),
            (exp_t(u), ref_exp_t(field, u.coeffs)),
        ):
            assert_canonical(result)
            assert result.coeffs == expected, (n, a, b, u)
            assert result == TruncatedSeries(field, expected)
            compared += 1
    assert compared >= 5 * top * 12


def test_dual_number_kernels_match_the_fraction_loops():
    """The closed N = 2 forms over GF(p): every vector pair at p = 3, 5, 7, and seeded pairs at word size."""
    rng = random.Random(14)
    word = GF(2**61 - 1)
    cases = [(GF(p), a, b) for p in (3, 5, 7)
             for a in itertools.product(range(p), repeat=2) for b in itertools.product(range(p), repeat=2)]
    draw = lambda: (rng.randrange(word.p), rng.randrange(word.p))
    cases += [(word, draw(), draw()) for _ in range(200)]
    inverted = 0
    for field, a, b in cases:
        x, y = TruncatedSeries(field, a), TruncatedSeries(field, b)
        assert (x * y).coeffs == ref_mul(field, a, b), (field, a, b)
        assert_canonical(x * y)
        if a[0]:
            assert x.invert().coeffs == ref_invert(field, a), (field, a)
            assert_canonical(x.invert())
            inverted += 1
    assert len(cases) == 3**4 + 5**4 + 7**4 + 200 and inverted > 2800


# -- the packed GF(p) product against the shared integer loop ---------------

PACKED_PRIMES = (3, 5, 7, 11, 13, 43, 101, 1000003, 10**9 + 7)
WORD_PRIME = 2**61 - 1


def slot_bytes(field, n):
    """The slot width of field's packed product at precision n, in bytes; None where the loop runs."""
    slots = field._slots[n]
    return None if slots is None else slots.size // n


def straddling_primes(bits, n):
    """The largest prime p with n (p - 1)^2 < 2^bits, and the next prime, where that fails."""
    top = math.isqrt(((1 << bits) - 1) // n) + 1
    below, above = top, top + 1
    while not _is_prime(below):
        below -= 1
    while not _is_prime(above):
        above += 1
    return below, above


def mul_cases(p, n, rng):
    """Random vectors, all-(p - 1) vectors (the largest slot sums) and one of each."""
    draw = lambda: tuple(rng.randrange(p) for _ in range(n))
    top = (p - 1,) * n
    return [(draw(), draw()) for _ in range(4)] + [(top, top), (top, draw()), (draw(), top)]


def test_packed_product_matches_the_shared_loop():
    """PrimeField.mul against Field.mul at N = 1..12, on both sides of each slot-width boundary
    N (p - 1)^2 = 2^16, 2^32, 2^64, where the rule picks the next width (or the loop)."""
    rng = random.Random(29)
    cases = [(p, n) for p in PACKED_PRIMES for n in range(1, 13)]
    for n in range(1, 13):
        for bits, width, wider in ((16, 2, 4), (32, 4, 8), (64, 8, None)):
            below, above = straddling_primes(bits, n)
            assert n * (below - 1) ** 2 < 1 << bits <= n * (above - 1) ** 2
            assert (slot_bytes(GF(below), n), slot_bytes(GF(above), n)) == (width, wider), (bits, n)
            cases += [(below, n), (above, n)]
    cases += [(WORD_PRIME, n) for n in range(1, 13)]
    assert all(slot_bytes(GF(WORD_PRIME), n) is None for n in range(1, 13))
    for p, n in cases:
        field = GF(p)
        for a, b in mul_cases(p, n, rng):
            assert field.mul(a, 1, b, 1) == Field.mul(field, a, 1, b, 1), (p, n, a, b)
    assert len(cases) == 9 * 12 + 12 * 3 * 2 + 12


def test_only_gfp_products_in_word_slots_skip_the_loop(monkeypatch):
    """Every QQ product runs the shared loop; GF(13) never does (N = 2 is a closed form, the rest
    packed), and GF(2^61 - 1) runs it wherever N != 2, since no 8-byte slot holds (p - 1)^2."""
    rng = random.Random(30)
    loops = []
    loop = Field.mul
    monkeypatch.setattr(Field, "mul", lambda self, *args: loops.append(self) or loop(self, *args))
    for field in (QQ, GF(13), GF(WORD_PRIME)):
        for n in range(1, 13):
            a, b = random_series(field, n, rng, 10**6), random_series(field, n, rng, 10**6)
            loops.clear()
            product = a * b
            looped = field is QQ or (field.p == WORD_PRIME and n != 2)
            assert loops == ([field] if looped else []), (field, n)
            assert product.coeffs == ref_mul(field, a.coeffs, b.coeffs)


def test_log_circ_and_exp_t_read_inverses_from_the_inv_memo():
    """A fresh GF(13) serves every 1/k of log_circ and exp_t from its inv memo, long after short."""
    field = PrimeField(13)
    rng = random.Random(12)
    for n in (3, 13, 5):
        a = random_series(field, n, rng) + 1
        while not a.is_unit:
            a = a + 1
        u = log_circ(a)
        e = exp_t(u)
        # checked before the references, which fill the memo themselves
        assert set(range(1, n)) <= set(field._inv) <= set(range(1, 13)), n
        assert all(type(x) is int and x * y % 13 == 1 for x, y in field._inv.items()), n
        assert u.coeffs == ref_log_circ(field, a.coeffs)
        assert e.coeffs == ref_exp_t(field, u.coeffs)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_log_circ_normalises_once_and_builds_no_series(field, monkeypatch):
    """One recurrence: no inverse, product or re-truncation, and one normalisation over QQ."""
    rng = random.Random(13)
    for n in (1, 2, 5, 7):
        a = random_series(field, n, rng, 10) + 1
        while not a.is_unit:
            a = a + 1
        expected = ref_log_circ(field, a.coeffs)
        calls = []
        original = type(field).normalize
        with monkeypatch.context() as patched:
            for name in ("invert", "__mul__", "with_precision"):
                patched.setattr(TruncatedSeries, name, None)
            patched.setattr(type(field), "normalize",
                            lambda self, nums, den: calls.append(den) or original(self, nums, den))
            result = log_circ(a)
        assert result.coeffs == expected
        assert len(calls) == (0 if field.characteristic else 1)
        assert_canonical(result)


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
    """The normalised vector, and agreement with the same series built through from_coeffs."""
    p = s.field.characteristic
    assert type(s.nums) is tuple and all(type(x) is int for x in s.nums), s
    assert type(s.den) is int and s.den > 0, s
    if p == 0:
        assert math.gcd(s.den, *s.nums) == 1, (s, s.nums, s.den)
        assert all(type(c) is Fraction for c in s.coeffs), s
    else:
        assert s.den == 1 and all(0 <= x < p for x in s.nums), (s, s.nums)
    if s.is_zero():
        assert s.den == 1, s
    rebuilt = TruncatedSeries.from_coeffs(s.field, s.coeffs)
    assert (rebuilt.nums, rebuilt.den) == (s.nums, s.den)
    assert rebuilt == s and hash(rebuilt) == hash(s) and str(rebuilt) == str(s)


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
        ledger = WedgeLedger([(1, a, one + b), (2, b, a)])
        results = [
            a, b, zero, one, TruncatedSeries.constant(field, scalar, n),
            a + b, a - b, -a, -zero, 2 + a, 1 - a, a * b, b * a, zero * zero,
            a * scalar, a * 3, scalar * a, a.invert(), b.invert(), a / b, 1 / a,
            a ** 0, a ** 3, a ** -2, a.scale(scalar),
            log_circ(a), log_circ(one), log_circ(TruncatedSeries.constant(field, 2, n)),
            exp_t(u), exp_t(zero), a.truncate_below(2), a.with_precision(n + 2),
            a.with_precision(2), a - a, a + scalar, a - scalar, scalar - a, one - 1,
            TruncatedSeries.from_coeffs(field, [Fraction(1, 2), Fraction(3, 2)]) * 2,
            TruncatedSeries.from_coeffs(field, [Fraction(2, 3), 1]).with_precision(1),
        ]
        for s in results:
            assert_canonical(s)
        # the ledger's logs: numerators over one denominator, gcd 1 across the ledger
        den, logged = ledger.logged()
        assert den > 0 and math.gcd(den, *(x for _, lo, ro in logged for x in lo + ro)) == 1
        for (_, left, right), (_, lo, ro) in zip(ledger.terms, logged):
            for side, log in ((left, lo), (right, ro)):
                assert TruncatedSeries(field, tuple(field.quotient(x, den) for x in log)) == log_circ(side)


SCALARS = {
    "int": lambda field: -3,
    "Fraction": lambda field: Fraction(5, 4),
    "FieldElement": lambda field: field.element(Fraction(-2, 3)),
}


@pytest.mark.parametrize("kind", sorted(SCALARS))
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_scalar_sums_build_no_constant_series(field, kind, monkeypatch):
    rng = random.Random(8)
    c = SCALARS[kind](field)
    for n in (1, 2, 5):
        a = random_series(field, n, rng, 10)
        const = TruncatedSeries.constant(field, c, n)
        expected = [a + const, const + a, a - const, const - a]
        calls = []
        original = type(field).normalize
        with monkeypatch.context() as patched:
            patched.setattr(TruncatedSeries, "from_coeffs", None)  # no constant series is built
            patched.setattr(type(field), "normalize",
                            lambda self, nums, den: calls.append(den) or original(self, nums, den))
            results = [a + c, c + a, a - c, c - a]
        assert results == expected
        assert len(calls) == 4  # one normalisation per sum, scalar - series included
        for s in results:
            assert_canonical(s)
