import itertools
import random
from fractions import Fraction

import pytest

from infdilog import bloch, cluster, dilog
from infdilog.bloch import (
    WedgeLedger,
    ZeroTestResult,
    apply_functional_pair,
    delta,
    ell,
    pentagon_terms,
    zero_test_rational,
)
from infdilog.fields import GF, QQ, FieldElement, PrimeField, RationalField
from infdilog.series import NotFlatError, PrecisionError, TruncatedSeries, log_circ, random_series


def q_series(*coeffs, precision=None):
    return TruncatedSeries.from_coeffs(QQ, [Fraction(c) for c in coeffs], precision)


def _combined(*weighted):
    """The ledger of sum weight * ledger over (weight, ledger) pairs, term by term."""
    return WedgeLedger([(weight * c, l, r) for weight, ledger in weighted for c, l, r in ledger.terms])


def _delta_pentagon(a, b):
    """sum sign * delta(arg) over the five-term combination of a and b."""
    return _combined(*((sign, delta(arg)) for sign, arg in pentagon_terms(a, b)))


def test_ell_examples():
    a = q_series(2, 1, 0)
    assert ell(1, a) == QQ.element(Fraction(1, 2))
    assert ell(2, a) == QQ.element(Fraction(-1, 8))
    assert ell(2, q_series(9, 0, 0)) == QQ.zero
    with pytest.raises(PrecisionError):
        ell(0, a)
    with pytest.raises(PrecisionError):
        ell(3, a)


def test_ell_additive_in_products():
    rng = random.Random(4)
    for _ in range(300):
        u = random_series(QQ, 5, rng)
        v = random_series(QQ, 5, rng)
        if not (u.is_unit and v.is_unit):
            continue
        for a in (1, 2, 3, 4):
            assert ell(a, u * v) == ell(a, u) + ell(a, v)


def test_delta_examples():
    led = delta(q_series(2, 1))
    assert led.terms == ((1, q_series(-1, -1), q_series(2, 1)),)
    with pytest.raises(NotFlatError):
        delta(q_series(1, 1))
    with pytest.raises(NotFlatError):
        delta(q_series(0, 1))


def test_functional_pair_hand_values():
    assert apply_functional_pair(2, 1, delta(q_series(2, 1, 0))) == QQ.element(Fraction(-1, 8))
    assert apply_functional_pair(2, 1, delta(q_series(2, 1, 7))) == QQ.element(Fraction(-1, 8))


def test_functional_pair_antisymmetry_and_bilinearity():
    rng = random.Random(8)
    for _ in range(50):
        a = random_series(QQ, 4, rng)
        b = random_series(QQ, 4, rng)
        c = random_series(QQ, 4, rng)
        if not all(s.is_unit for s in (a, b, c)):
            continue
        w1 = WedgeLedger([(2, a, b)])
        w2 = WedgeLedger([(-1, b, c)])
        for f, g in ((1, 2), (1, 3), (2, 3)):
            assert apply_functional_pair(f, f, w1) == QQ.zero
            assert apply_functional_pair(f, g, w1) == -apply_functional_pair(g, f, w1)
            assert apply_functional_pair(f, g, _combined((1, w1), (1, w2))) == (
                apply_functional_pair(f, g, w1) + apply_functional_pair(f, g, w2)
            )


def test_splitting_a_product_changes_nothing():
    # replacing a term's unit bc by two terms with b and c is invisible to
    # every functional and to the zero test
    rng = random.Random(21)
    for _ in range(25):
        b = random_series(QQ, 4, rng)
        c = random_series(QQ, 4, rng)
        d = random_series(QQ, 4, rng)
        if not all(s.is_unit for s in (b, c, d)):
            continue
        joined = WedgeLedger([(1, b * c, d)])
        split = WedgeLedger([(1, b, d), (1, c, d)])
        for f, g in ((1, 2), (1, 3), (2, 3)):
            assert apply_functional_pair(f, g, joined) == apply_functional_pair(f, g, split)
        difference = _combined((1, joined), (-1, split))
        assert zero_test_rational(difference).is_zero


def test_zero_test_trivial_cases():
    assert zero_test_rational(WedgeLedger()).is_zero
    a = q_series(2, 3, 1)
    assert zero_test_rational(WedgeLedger([(1, a, a)])).is_zero
    assert zero_test_rational(WedgeLedger([(3, a, a.invert())])).is_zero


def test_zero_test_detects_each_component():
    one_plus_t = q_series(1, 1, 0)
    # infinitesimal: (1+t) ^ (1+2t) has a nonzero ell_1 ^ ell_2 pairing
    res = zero_test_rational(WedgeLedger([(1, one_plus_t, q_series(1, 2, 0))]))
    assert res.verdict == "nonzero" and res.failing_component == "infinitesimal"
    # mixed: 2 ^ (1+t) pairs the prime 2 against a principal unit
    res = zero_test_rational(WedgeLedger([(1, q_series(2, 0, 0), one_plus_t)]))
    assert res.verdict == "nonzero" and res.failing_component == "mixed"
    # constants: 2 ^ 3 survives rationally
    res = zero_test_rational(WedgeLedger([(1, q_series(2, 0), q_series(3, 0))]))
    assert res.verdict == "nonzero" and res.failing_component == "constants"
    # sign wedges are 2-torsion and vanish rationally
    res = zero_test_rational(WedgeLedger([(1, q_series(-1, 0), q_series(3, 0))]))
    assert res.is_zero


def test_zero_test_charp_torsion_components_vanish():
    # over GF(p) the constants and the principal units are finite groups, so
    # only the infinitesimal component can survive rationalization
    f5 = GF(5)
    two = TruncatedSeries.from_coeffs(f5, [2, 0, 0])
    unit = TruncatedSeries.from_coeffs(f5, [1, 1, 0])
    assert zero_test_rational(WedgeLedger([(1, two, unit)])).is_zero
    res = zero_test_rational(WedgeLedger([(1, unit, TruncatedSeries.from_coeffs(f5, [1, 2, 0]))]))
    assert res.verdict == "nonzero" and res.failing_component == "infinitesimal"


def test_zero_test_decides_constants_with_large_prime_factors():
    # 104729 is prime, and 1000003 * 1000033 has no factor below 10^6
    one_plus_t = q_series(1, 1)
    res = zero_test_rational(WedgeLedger([(1, q_series(104729, 0), one_plus_t)]))
    assert res.verdict == "nonzero" and res.failing_component == "mixed"
    p, q = q_series(1000003, 0), q_series(1000033, 0)
    # pq ^ p = q ^ p, so adding p ^ q cancels it
    assert zero_test_rational(WedgeLedger([(1, p * q, p), (1, p, q)])).is_zero
    res = zero_test_rational(WedgeLedger([(1, p * q, p)]))
    assert res.verdict == "nonzero" and res.failing_component == "constants"
    split = WedgeLedger([(1, p * q, one_plus_t), (-1, p, one_plus_t), (-1, q, one_plus_t)])
    assert zero_test_rational(split).is_zero


def _prime_exponents(values):
    """Reference for bloch._coprime_exponents: prime exponent vectors by trial division."""
    def factor(n):
        primes, d = {}, 2
        while d * d <= n:
            while n % d == 0:
                primes[d] = primes.get(d, 0) + 1
                n //= d
            d += 1
        if n > 1:
            primes[n] = primes.get(n, 0) + 1
        return primes

    vectors = {}
    for value in values:
        # numerator and denominator are coprime, so their primes are disjoint
        vectors[value] = {**factor(abs(value.numerator)),
                          **{q: -e for q, e in factor(value.denominator).items()}}
    primes = sorted({q for vector in vectors.values() for q in vector})
    return {value: tuple(vector.get(q, 0) for q in primes) for value, vector in vectors.items()}, primes


def _random_ledger(rng, height=12):
    """A small QQ ledger at precision 3 whose constants share factors when height is small.

    Profile 0 has constant sides only, profile 1 pairs constants with
    principal units, profile 2 is unrestricted, and profile 3 starts from a
    ledger that is zero by bilinearity and antisymmetry and then adds terms
    to it, or keeps a ^ bc - a ^ b = a ^ c only, with a constant c that
    enters through bc alone."""
    def constant():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))

    def side(kind):
        small = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
        if kind == "constant":
            return q_series(constant(), 0, 0)
        return q_series(1 if kind == "principal" else constant(), *small)

    profile = rng.randrange(4)
    kinds = ("constant", "principal", "general")[:profile + 1]
    terms = [(rng.choice((-2, -1, 1, 2)), side(rng.choice(kinds)), side(rng.choice(kinds)))
             for _ in range(rng.randint(1, 3))]
    if profile == 3:
        change = rng.randrange(5)
        a, b = side(rng.choice(kinds)), side(rng.choice(kinds))
        c = side("constant" if change == 4 else rng.choice(kinds))
        k = rng.choice((-1, 1, 3))
        zero = [(k, a, b * c), (-k, a, b), (-k, a, c), (1, b, c), (1, c, b), (2, a, a)]
        terms = zero[:2] if change == 4 else zero + [
            [], terms[:1], [(1, side("constant"), side("principal"))],
            [(1, side("constant"), side("constant"))]][change]
    return WedgeLedger(terms)


def test_coprime_base_matches_the_prime_exponent_reference(monkeypatch):
    six, two, three, four = (q_series(c, 0, 0) for c in (6, 2, 3, 4))
    controls = [WedgeLedger([(1, six, six)]),
                WedgeLedger([(1, two, six), (-1, two, three)]),
                WedgeLedger([(1, four, three), (-2, two, three)])]
    rng = random.Random(57)
    ledgers = controls + [_random_ledger(rng) for _ in range(400)]
    decided = [zero_test_rational(ledger) for ledger in ledgers]
    monkeypatch.setattr(bloch, "_coprime_exponents", _prime_exponents)
    reference = [zero_test_rational(ledger) for ledger in ledgers]
    assert all(res.is_zero for res in decided[:3])
    outcomes = {}
    for ledger, res, ref in zip(ledgers, decided, reference):
        assert (res.verdict, res.failing_component) == (ref.verdict, ref.failing_component), ledger.terms
        outcomes[res.failing_component] = outcomes.get(res.failing_component, 0) + 1
    assert min(outcomes.get(c, 0) for c in (None, "infinitesimal", "mixed", "constants")) >= 20, outcomes


def _zero_test_reference(ledger):
    """Reference for bloch.zero_test_rational: its three components decided by three loops.

    (i) one sum per functional pair; (ii) one series-valued accumulator per
    base element; (iii) an integer double loop over pairs of base elements,
    on sparse exponent vectors over bloch's coprime base."""
    if not ledger.terms:
        return ZeroTestResult("zero")
    field = ledger.terms[0][1].field
    precision = ledger.terms[0][1].precision
    den, logged = ledger.logged()

    for i in range(1, precision):
        for j in range(i + 1, precision):
            total = sum(coeff * (lo[i] * ro[j] - lo[j] * ro[i]) for coeff, lo, ro in logged)
            if total and (entry := field.quotient(total, den * den)):
                return ZeroTestResult("nonzero", "infinitesimal", f"(ell_{i} ^ ell_{j}) evaluates to {entry}")
    if field.characteristic:
        return ZeroTestResult("zero")

    constants = [(left.constant_term().value, right.constant_term().value) for _, left, right in ledger.terms]
    dense, base = bloch._coprime_exponents({c for pair in constants for c in pair})
    exponents = {c: {q: e for q, e in zip(base, vector) if e} for c, vector in dense.items()}
    support = sorted({q for vector in exponents.values() for q in vector})

    for q in support:
        acc = [0] * precision
        for (coeff, lo, ro), (cl, cr) in zip(logged, constants):
            eq_l = coeff * exponents[cl].get(q, 0)
            eq_r = coeff * exponents[cr].get(q, 0)
            for d in range(1, precision):
                acc[d] += eq_l * ro[d] - eq_r * lo[d]
        if any(acc):
            bad = next(d for d in range(1, precision) if acc[d])
            return ZeroTestResult("nonzero", "mixed",
                                  f"base element {q} accumulator has t^{bad} coefficient {field.quotient(acc[bad], den)}")

    for a_pos, q in enumerate(support):
        for r in support[a_pos + 1:]:
            entry = 0
            for (coeff, _, _), (cl, cr) in zip(ledger.terms, constants):
                el, er = exponents[cl], exponents[cr]
                entry += coeff * (el.get(q, 0) * er.get(r, 0) - el.get(r, 0) * er.get(q, 0))
            if entry:
                return ZeroTestResult("nonzero", "constants", f"(v_{q} ^ v_{r}) evaluates to {entry}")
    return ZeroTestResult("zero")


def _trajectory_ledger(pattern, all_ones, field, precision, rng):
    """The lemma ledger sum theta_r * (beta ^ (1 - beta)), beta = -y, along the pattern's
    trajectory from a random point, under its own theta or all-ones; None at an invalid point."""
    matrix, schedule = cluster.builtin_pattern(pattern)
    theta = (1,) * matrix.n if all_ones else schedule.resolved_theta(matrix)
    point = tuple(random_series(field, precision, rng, 10) for _ in range(matrix.n))
    try:
        steps = cluster.run_schedule(matrix, point, schedule).steps
    except cluster.InvalidPointError:
        return None
    betas = [(theta[step.direction], -step.value) for step in steps]
    if not all(beta.is_flat for _, beta in betas):
        return None
    return WedgeLedger([(weight, beta, 1 - beta) for weight, beta in betas])


def test_one_form_zero_test_matches_the_three_component_reference(monkeypatch):
    rng = random.Random(60)
    ledgers = [_random_ledger(rng) for _ in range(400)] + [_random_ledger(rng, 10**5) for _ in range(200)]
    for field in (GF(5), GF(7), GF(11)):
        ledgers += [_random_pair_ledger(field, rng.randint(3, 5), rng)[0] for _ in range(60)]
    for pattern, all_ones, field, precision in itertools.product(("A2", "B2"), (False, True), (QQ, GF(7)), (4,)):
        found = 0
        while found < 30:
            ledger = _trajectory_ledger(pattern, all_ones, field, precision, rng)
            if ledger is not None:
                ledgers.append(ledger)
                found += 1
    calls = []
    original = bloch._pair_sums
    monkeypatch.setattr(bloch, "_pair_sums", lambda rows, pairs: calls.append(pairs) or original(rows, pairs))
    outcomes = {}
    for ledger in ledgers:
        calls.clear()
        result = zero_test_rational(ledger)
        # every component is read from one pass over the ledger; an empty one needs none
        assert len(calls) == (1 if ledger.terms else 0)
        assert result == _zero_test_reference(ledger), ledger.terms
        outcomes[result.failing_component] = outcomes.get(result.failing_component, 0) + 1
    assert len(ledgers) >= 1000
    assert min(outcomes.get(c, 0) for c in (None, "infinitesimal", "mixed", "constants")) >= 20, outcomes


def _reference_pair_values(field, ledger, pairs):
    """Reference for bloch._pair_sums: the per-pair loop, term by term in field arithmetic."""
    logs = {side: log_circ(side) for _, left, right in ledger.terms for side in (left, right)}
    values = []
    for f, g in pairs:
        total = field.zero
        for coeff, left, right in ledger.terms:
            lo, ro = logs[left], logs[right]
            total += coeff * (lo.coeff(f) * ro.coeff(g) - lo.coeff(g) * ro.coeff(f))
        values.append(total)
    return values


def _units(field, precision, rng, count):
    units = []
    while len(units) < count:
        side = random_series(field, precision, rng, 6)
        if side.is_unit:
            units.append(side)
    return units


def _random_pair_ledger(field, precision, rng):
    """(ledger, known_zero): terms over three sides, so sides repeat, with zero
    coefficients among them; half the ledgers are made zero by adding each
    term reversed and one a ^ bc - a ^ b - a ^ c."""
    pool = _units(field, precision, rng, 3)
    terms = [(rng.choice((-2, -1, 0, 1, 3)), rng.choice(pool), rng.choice(pool))
             for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        return WedgeLedger(terms), False
    a, b, c = (rng.choice(pool) for _ in range(3))
    return WedgeLedger(terms + [(k, r, l) for k, l, r in terms] + [(1, a, b * c), (-1, a, b), (-1, a, c)]), True


def test_one_pass_evaluator_matches_the_per_pair_reference():
    rng = random.Random(59)
    seen = {"zero": 0, "nonzero": 0}
    for field in (QQ, GF(5), GF(7), GF(11)):
        for _ in range(60):
            precision = rng.randint(3, min(field.characteristic or 8, 8))
            ledger, known_zero = _random_pair_ledger(field, precision, rng)
            test_pairs = [(i, j) for i in range(1, precision) for j in range(i + 1, precision)]
            top = rng.randint(2, precision)
            lift_pairs = [(top - i, i) for i in range(1, top)]
            den, rows = ledger.logged()
            for pairs in (test_pairs, lift_pairs):
                sums = bloch._pair_sums(rows, pairs)
                reference = _reference_pair_values(field, ledger, pairs)
                assert [FieldElement(field, field.quotient(s, den * den)) for s in sums] == reference
                assert not known_zero or not any(reference)
            # the zero test names the reference's first nonzero pair, with its value
            values = _reference_pair_values(field, ledger, test_pairs)
            first = next(((pair, v) for pair, v in zip(test_pairs, values) if v), None)
            result = zero_test_rational(ledger)
            if first is None:
                assert result.failing_component != "infinitesimal"
            else:
                (i, j), value = first
                assert result == ("nonzero", "infinitesimal", f"(ell_{i} ^ ell_{j}) evaluates to {value}")
            seen["zero" if first is None else "nonzero"] += 1
            # _lift_sum on delta of a flat lift against the weighted reference pairs
            lift = next(u for u in iter(lambda: random_series(field, precision, rng, 6), None) if u.is_flat)
            count = rng.randint(1, top - 1)
            expected = sum((i * v for i, v in enumerate(
                _reference_pair_values(field, delta(lift), lift_pairs[:count]), 1)), field.zero)
            assert dilog._lift_sum(lift, top, count) == expected
    assert min(seen.values()) >= 60, seen


def test_pentagon_terms_validity():
    with pytest.raises(NotFlatError):
        pentagon_terms(q_series(1, 1), q_series(2, 1))
    with pytest.raises(NotFlatError):
        pentagon_terms(q_series(2, 1), q_series(2, 5))
    terms = pentagon_terms(q_series(2, 1), q_series(3, 1))
    assert [sign for sign, _ in terms] == [1, -1, 1, -1, 1]
    assert terms[2][1] == q_series(Fraction(3, 2), Fraction(-1, 4))


def test_pentagon_delta_combination_zero_tests_to_zero():
    rng = random.Random(31)
    hits = 0
    while hits < 25:
        a = random_series(QQ, 6, rng, 8)
        b = random_series(QQ, 6, rng, 8)
        if not (a.is_flat and b.is_flat) or a.constant_term() == b.constant_term():
            continue
        ledger = _delta_pentagon(a, b)
        result = zero_test_rational(ledger)
        assert result.is_zero, result
        # zero verdict implies every functional pair vanishes
        for f in range(1, 6):
            for g in range(f + 1, 6):
                assert apply_functional_pair(f, g, ledger) == QQ.zero
        hits += 1


def test_ledger_validation():
    with pytest.raises(Exception):
        WedgeLedger([(1, q_series(0, 1), q_series(2, 1))])
    with pytest.raises(TypeError):
        WedgeLedger([(Fraction(1, 2), q_series(2, 1), q_series(2, 1))])
    assert WedgeLedger([(0, q_series(2, 1), q_series(3, 1))]).terms == ()


def test_ledger_computes_each_log_once(monkeypatch):
    calls = []
    original = bloch.log_circ
    monkeypatch.setattr(bloch, "log_circ", lambda a: calls.append(a) or original(a))
    dilog.li_via_lift(4, 7, q_series(2, 1, 3, -1, 5, 0, 2))
    assert len(calls) == 2  # delta(lift) has the two sides 1 - lift and lift
    calls.clear()
    dilog.li2p_via_lift(TruncatedSeries.from_coeffs(GF(7), [3, 1, 2, 0, 5, 1, 4]))
    assert len(calls) == 2

    rng = random.Random(40)
    while True:
        a = random_series(QQ, 5, rng, 6)
        b = random_series(QQ, 5, rng, 6)
        if a.is_flat and b.is_flat and a.constant_term() != b.constant_term():
            break
    ledger = _delta_pentagon(a, b)
    calls.clear()
    assert zero_test_rational(ledger).is_zero
    assert len(calls) == len({side for _, left, right in ledger.terms for side in (left, right)})
    calls.clear()
    apply_functional_pair(1, 4, ledger)
    assert calls == []
    with pytest.raises(PrecisionError):
        apply_functional_pair(0, 1, ledger)
    with pytest.raises(PrecisionError):
        apply_functional_pair(1, 5, ledger)


def test_ledger_resolves_each_term_once(monkeypatch):
    rng = random.Random(41)
    while True:
        a = random_series(QQ, 6, rng, 6)
        b = random_series(QQ, 6, rng, 6)
        if a.is_flat and b.is_flat and a.constant_term() != b.constant_term():
            break
    ledger = _delta_pentagon(a, b)
    hashes = []
    original = TruncatedSeries.__hash__
    monkeypatch.setattr(TruncatedSeries, "__hash__", lambda s: hashes.append(s) or original(s))
    assert zero_test_rational(ledger).is_zero
    # each side of each term is looked up (and on a miss stored) once, when
    # the terms are resolved; every coordinate pair of the zero test reads
    # the resolved tuples instead of 2 lookups per term each
    assert len(hashes) <= 4 * len(ledger.terms)
    hashes.clear()
    apply_functional_pair(1, 5, ledger)
    assert hashes == []


def test_lift_sum_makes_one_field_value(monkeypatch):
    quotients = []
    for cls in (RationalField, PrimeField):
        monkeypatch.setattr(cls, "quotient", lambda self, num, den, original=cls.quotient:
                            quotients.append(num) or original(self, num, den))
    # li_via_lift(4, 7) reads 3 pairs and li2p_via_lift over GF(7) 6, all in one quotient
    dilog._lift_sum(q_series(2, 1, 3, -1, 5, 0, 2), 7, 3)
    assert len(quotients) == 1
    dilog._lift_sum(TruncatedSeries.from_coeffs(GF(7), [3, 1, 2, 0, 5, 1, 4]), 7, 6)
    assert len(quotients) == 2


def test_a_passing_charp_zero_test_builds_no_field_element(monkeypatch):
    field, rng = GF(11), random.Random(42)
    while True:
        a, b = random_series(field, 8, rng), random_series(field, 8, rng)
        if a.is_flat and b.is_flat and a.nums[0] != b.nums[0]:
            break
    ledger = _delta_pentagon(a, b)
    ledger.logged()
    made = []
    original = FieldElement.__init__
    monkeypatch.setattr(FieldElement, "__init__",
                        lambda self, field, value: made.append(value) or original(self, field, value))
    # the 21 pairs of component (i) are integer sums, none of them a field value
    assert zero_test_rational(ledger).is_zero
    assert made == []


def test_ledger_keeps_a_log_already_over_its_denominator(monkeypatch):
    logs = {}
    original = bloch.log_circ
    monkeypatch.setattr(bloch, "log_circ", lambda side: logs.setdefault(side, original(side)))
    # over GF(p) every denominator is 1, so every log tuple is log_circ's own
    f7 = GF(7)
    a, b = (TruncatedSeries.from_coeffs(f7, c) for c in ([3, 1, 2, 0, 5], [2, 6, 0, 1, 1]))
    ledger = WedgeLedger([(1, a, b), (2, b, a * b)])
    den, logged = ledger.logged()
    assert den == 1
    for (_, lo, ro), (_, left, right) in zip(logged, ledger.terms):
        assert lo is logs[left].nums and ro is logs[right].nums
    # over QQ a log with the ledger's denominator is kept and another is scaled
    half, one = q_series(2, 1, 0), q_series(1, 1, 0)
    den, ((_, lo, ro),) = WedgeLedger([(1, half, one)]).logged()
    assert (den, logs[half].den, logs[one].den) == (8, 8, 2)
    assert lo is logs[half].nums
    assert ro == tuple(4 * x for x in logs[one].nums)


def _pentagon_terms_reference(a, b):
    """Reference: the pentagon arguments as written, with five inversions."""
    one = TruncatedSeries.one(a.field, a.precision)
    return [(1, a), (-1, b), (1, b / a), (-1, (one - a.invert()) / (one - b.invert())),
            (1, (one - a) / (one - b))]


def test_pentagon_terms_match_the_five_inversion_form():
    rng = random.Random(43)
    for n in range(2, 8):
        hits = 0
        while hits < 20:
            a, b = random_series(QQ, n, rng, 10), random_series(QQ, n, rng, 10)
            if not (a.is_flat and b.is_flat) or a.constant_term() == b.constant_term():
                continue
            assert pentagon_terms(a, b) == _pentagon_terms_reference(a, b), (a, b)
            hits += 1
    field = GF(7)
    duals = [TruncatedSeries(field, c) for c in itertools.product(range(7), repeat=2)]
    valid = 0
    for a, b in itertools.product(duals, repeat=2):
        if not (a.is_flat and b.is_flat) or a.nums[0] == b.nums[0]:
            with pytest.raises(NotFlatError):
                pentagon_terms(a, b)
            continue
        assert pentagon_terms(a, b) == _pentagon_terms_reference(a, b), (a, b)
        valid += 1
    # a: 5 flat constants, b: the 4 others, each with 7 tangents
    assert valid == 5 * 7 * 4 * 7
