import random
from fractions import Fraction

import pytest

from infdilog.cluster import (
    BUILTIN_PATTERNS,
    ExchangeMatrix,
    InvalidPointError,
    MutationSchedule,
    NotSkewSymmetrizableError,
    YSeed,
    builtin_pattern,
    check_periodicity,
    pattern_from_dict,
    run_schedule,
    skew_symmetrizer,
)
from infdilog.fields import GF, QQ
from infdilog.series import NonUnitError, TruncatedSeries, random_series
from infdilog.verify import check_periodicity_report


def q_const(value, precision=1):
    return TruncatedSeries.constant(QQ, Fraction(value), precision)


def q_point(*values, precision=1):
    return tuple(q_const(v, precision) for v in values)


def test_matrix_validation():
    with pytest.raises(ValueError):
        ExchangeMatrix([[0, 1], [1, 0]])  # sign-skew-symmetry violated
    with pytest.raises(ValueError):
        ExchangeMatrix([[1]])  # nonzero diagonal
    with pytest.raises(ValueError):
        ExchangeMatrix([[0, 1]])  # not square
    with pytest.raises(ValueError):
        ExchangeMatrix([[0, 0], [1, 0]])  # zero against nonzero
    ExchangeMatrix([[0, -1], [2, 0]])


def test_matrix_mutation_rank2_flips_sign():
    b = ExchangeMatrix([[0, -1], [1, 0]])
    assert b.mutate(0) == ExchangeMatrix([[0, 1], [-1, 0]])
    assert b.mutate(0).mutate(0) == b


def test_matrix_mutation_rank3():
    b = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    mutated = b.mutate(1)
    assert mutated == ExchangeMatrix([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
    assert mutated.mutate(1) == b


def test_skew_symmetrizer_examples():
    assert skew_symmetrizer(ExchangeMatrix([[0, -1], [1, 0]])) == (1, 1)
    assert skew_symmetrizer(ExchangeMatrix([[0, -1], [2, 0]])) == (1, 2)
    assert skew_symmetrizer(ExchangeMatrix([[0]])) == (1,)
    # decoupled blocks normalize independently: theta_3 * 3 = theta_2
    assert skew_symmetrizer(
        ExchangeMatrix([[0, -1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -1, 0]])
    ) == (1, 2, 3, 1)
    with pytest.raises(NotSkewSymmetrizableError):
        skew_symmetrizer(ExchangeMatrix([[0, 1, -1], [-2, 0, 1], [1, -2, 0]]))


def test_skew_symmetrizer_satisfies_the_condition_at_every_entry():
    rng = random.Random(11)
    for _ in range(1500):
        n = rng.randint(1, 4)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    sign = rng.choice((1, -1))
                    rows[i][j], rows[j][i] = sign * rng.randint(1, 4), -sign * rng.randint(1, 4)
        matrix = ExchangeMatrix(rows)
        try:
            theta = skew_symmetrizer(matrix)
        except NotSkewSymmetrizableError:
            continue
        assert all(t > 0 for t in theta)
        assert all(theta[j] * rows[i][j] == -theta[i] * rows[j][i]
                   for i in range(n) for j in range(n))


def test_seed_mutation_pins_the_convention():
    matrix = ExchangeMatrix([[0, -1], [1, 0]])
    seed = YSeed(matrix, q_point(2, 3))
    mutated = seed.mutate(0)
    assert mutated.ys == q_point(Fraction(1, 2), 9)  # (1/y1, y2 (1 + y1))
    assert mutated.matrix == ExchangeMatrix([[0, 1], [-1, 0]])


def test_mutation_involution_thousand_seeds():
    rng = random.Random(314)
    matrices = [builtin_pattern(name)[0] for name in ("A2", "B2")]
    done = 0
    while done < 1000:
        matrix = matrices[rng.randrange(2)]
        point = tuple(random_series(QQ, 2, rng) for _ in range(matrix.n))
        k = rng.randrange(matrix.n)
        seed = YSeed(matrix, point)
        try:
            back = seed.mutate(k).mutate(k)
        except InvalidPointError:
            continue
        assert back.ys == seed.ys and back.matrix == seed.matrix
        done += 1


def _power_by_products(series, exponent):
    base = series.invert() if exponent < 0 else series
    result = TruncatedSeries.one(series.field, series.precision)
    for _ in range(abs(exponent)):
        result = result * base
    return result


def _textbook_mutate(seed, k):
    """y'_k = 1/y_k, y'_i = y_i * y_k^max(b, 0) * (1 + y_k)^(-b) with b = b_ki.

    Returns the new y-values, or the message of the inversion that fails.
    """
    yk = seed.ys[k]
    try:
        new = [yk.invert() if i == k else y for i, y in enumerate(seed.ys)]
    except NonUnitError:
        return f"y_{k + 1} is not invertible here"
    for i in range(seed.matrix.n):
        b = seed.matrix.entry(k, i)
        if i == k or b == 0:
            continue
        try:
            factor = _power_by_products(yk, max(b, 0)) * _power_by_products(1 + yk, -b)
        except NonUnitError:
            return f"1 + y_{k + 1} is not invertible here"
        new[i] = new[i] * factor
    return tuple(new)


def test_mutation_matches_the_textbook_formula():
    valid = invalid = 0
    for field, height in ((QQ, 2), (GF(7), 10), (GF(11), 10)):
        rng = random.Random(field.characteristic)
        for rows in ([[0, -1], [3, 0]], [[0, 2], [-2, 0]], [[0, -1, 0], [3, 0, -1], [0, 2, 0]]):
            matrix = ExchangeMatrix(rows)
            for precision in (1, 2, 4):
                for _ in range(12):
                    seed = YSeed(matrix, tuple(random_series(field, precision, rng, height)
                                               for _ in range(matrix.n)))
                    for k in range(matrix.n):
                        expected = _textbook_mutate(seed, k)
                        if isinstance(expected, str):
                            with pytest.raises(InvalidPointError) as err:
                                seed.mutate(k)
                            assert str(err.value) == expected and err.value.direction == k
                            invalid += 1
                        else:
                            mutated = seed.mutate(k)
                            assert mutated.ys == expected and mutated.matrix == matrix.mutate(k)
                            valid += 1
    assert valid > 400 and invalid > 50


A2_FUNCTIONS = (
    lambda y1, y2: y1,
    lambda y1, y2: y2 * (1 + y1),
    lambda y1, y2: (1 + y2 + y1 * y2) / y1,
    lambda y1, y2: (1 + y2) / (y1 * y2),
    lambda y1, y2: 1 / y2,
)

B2_FUNCTIONS = (
    lambda y1, y2: y1,
    lambda y1, y2: y2 * (1 + y1),
    lambda y1, y2: (1 + y2 + y1 * y2) ** 2 / y1,
    lambda y1, y2: (1 + 2 * y2 + y2 ** 2 + y1 * y2 ** 2) / (y1 * y2),
    lambda y1, y2: (1 + y2) ** 2 / (y1 * y2 ** 2),
    lambda y1, y2: 1 / y2,
)


def test_a2_trajectory_hand_point():
    matrix, schedule = builtin_pattern("A2")
    trajectory = run_schedule(matrix, q_point(2, 3), schedule)
    got = [step.value.constant_term().value for step in trajectory.steps]
    assert got == [2, 9, 5, Fraction(2, 3), Fraction(1, 3)]
    # the closing permutation swaps the coordinates
    assert [y.constant_term().value for y in trajectory.final.ys] == [3, 2]


def test_trajectories_match_rational_function_oracle():
    # straight-line evaluation of the recorded y-functions, independent of the
    # mutation recursion
    rng = random.Random(10)
    for name, functions in (("A2", A2_FUNCTIONS), ("B2", B2_FUNCTIONS)):
        matrix, schedule = builtin_pattern(name)
        hits = 0
        while hits < 100:
            y1 = QQ.random_element(rng)
            y2 = QQ.random_element(rng)
            try:
                expected = [f(y1, y2) for f in functions]
            except ZeroDivisionError:
                continue
            try:
                trajectory = run_schedule(matrix, q_point(y1.value, y2.value), schedule)
            except InvalidPointError:
                continue
            got = [step.value.constant_term() for step in trajectory.steps]
            assert got == expected
            hits += 1


def test_run_schedule_edge_cases():
    matrix, schedule = builtin_pattern("A2")
    empty = MutationSchedule(directions=(), nu=(0, 1))
    trajectory = run_schedule(matrix, q_point(2, 3), empty)
    assert trajectory.steps == ()
    assert trajectory.final.ys == q_point(2, 3)
    with pytest.raises(InvalidPointError) as err:
        run_schedule(matrix, q_point(0, 3), schedule)
    assert err.value.step == 0


def test_invalid_point_mid_schedule_reports_step():
    matrix, schedule = builtin_pattern("A2")
    # y2 (1 + y1) = 0 at the second step when y2 = 0
    with pytest.raises(InvalidPointError) as err:
        run_schedule(matrix, q_point(2, 0), schedule)
    assert err.value.step == 1


def test_periodicity_builtins():
    for name in ("A1", "A2", "B2"):
        report = check_periodicity_report(name, trials=50)
        assert report.passed and report.valid >= 50
        matrix, schedule = builtin_pattern(name)
        point = tuple(TruncatedSeries.from_coeffs(QQ, (2 + i, 1)) for i in range(matrix.n))
        assert check_periodicity(matrix, schedule, point) is True


def test_periodicity_failures():
    matrix, _ = builtin_pattern("A2")
    b2, sched2 = builtin_pattern("B2")
    for pattern in (
        (matrix, MutationSchedule(directions=(0, 1, 0), nu=(0, 1))),  # short
        (matrix, MutationSchedule(directions=(0, 1, 0, 1, 0), nu=(0, 1))),  # swapped
        (b2, MutationSchedule(sched2.directions, nu=(1, 0))),  # wrong nu
    ):
        report = check_periodicity_report(pattern, trials=5)
        assert report.verdict == "fail" and report.failed == 1 and report.valid == 0
        assert report.witnesses[0]["value"] == "matrix does not return to nu of itself"


def test_periodicity_moves_y_i_to_place_nu_i():
    # an A3 period whose nu is a 3-cycle, so nu and its inverse differ
    matrix = ExchangeMatrix([[0, 1, 0], [-1, 0, -1], [0, 1, 0]])
    schedule = MutationSchedule((0, 1, 0, 1, 2, 0, 2, 0), nu=(1, 2, 0))
    inverse = MutationSchedule(schedule.directions, nu=(2, 0, 1))
    point = q_point(2, 3, 5)
    final = run_schedule(matrix, point, schedule).final.ys
    assert [final[nu_i] for nu_i in schedule.nu] == list(point)
    assert check_periodicity(matrix, schedule, point) is True
    assert check_periodicity(matrix, inverse, point) is False
    assert check_periodicity_report((matrix, schedule), trials=20).passed
    # a mutation that fails at the point raises, for the caller to resample
    with pytest.raises(InvalidPointError):
        check_periodicity(matrix, schedule, q_point(-1, 3, 5))


def test_periodicity_over_prime_field():
    report = check_periodicity_report("A2", field=GF(11), trials=25)
    assert report.passed and report.valid == 25


def test_theta_invariant_under_mutation():
    for name in ("A2", "B2"):
        matrix, schedule = builtin_pattern(name)
        theta = skew_symmetrizer(matrix)
        current = matrix
        for direction in schedule.directions:
            current = current.mutate(direction)
            assert skew_symmetrizer(current) == theta


def test_schedule_validation():
    matrix = ExchangeMatrix([[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        MutationSchedule(directions=(2,), nu=(0, 1)).validate(matrix)
    with pytest.raises(ValueError):
        MutationSchedule(directions=(0,), nu=(0, 0)).validate(matrix)
    with pytest.raises(ValueError):
        MutationSchedule(directions=(0,), nu=(0, 1), theta=(1, -2)).validate(matrix)
    with pytest.raises(ValueError):
        MutationSchedule(directions=(0,), nu=(0, 1), theta=(2, 1)).validate(matrix)
    # an empty sequence would make every cluster sum pass vacuously; a name enters the rng seed strings
    for bad in (MutationSchedule(directions=(), nu=(0, 1)), MutationSchedule(directions=(0,), nu=(0, 1), name=5)):
        with pytest.raises(ValueError):
            bad.validate(matrix)
    MutationSchedule(directions=(0,), nu=(0, 1), theta=(3, 3)).validate(matrix)


def test_pattern_config_errors():
    with pytest.raises(ValueError):
        pattern_from_dict({"B": [[0]], "sequence": [0]})  # missing nu
    with pytest.raises(ValueError):
        pattern_from_dict({"B": [[0, 1], [1, 0]], "sequence": [0], "nu": [0, 1]})
    with pytest.raises(ValueError):
        pattern_from_dict({"B": [[0]], "sequence": [0], "nu": [0, 0]})
    with pytest.raises(ValueError):
        builtin_pattern("E8")
    a2 = {"B": [[0, -1], [1, 0]], "sequence": [0, 1, 0, 1, 0], "nu": [1, 0]}
    for bad in (5, [a2], {**a2, "B": 5}, {**a2, "B": [5, 6]}, {**a2, "nu": 5},
                {**a2, "sequence": 0}, {**a2, "theta": 3}, {**a2, "sequence": None},
                {**a2, "sequence": [True, 1, 0, 1, 0]}, {**a2, "nu": [True, False]},
                {**a2, "nu": [1.0, 0.0]}, {**a2, "theta": [True, True]}, {**a2, "theta": ["a", 1]}):
        with pytest.raises(ValueError):
            pattern_from_dict(bad)
    assert pattern_from_dict(a2)[1].name == "custom"
    assert pattern_from_dict({**a2, "name": "mirror"})[1].name == "mirror"
    assert pattern_from_dict({**a2, "theta": None})[1].theta is None
    for name in BUILTIN_PATTERNS:
        assert builtin_pattern(name)[1].name == name


def test_seed_rank_mismatch():
    with pytest.raises(ValueError):
        YSeed(ExchangeMatrix([[0]]), q_point(2, 3))
