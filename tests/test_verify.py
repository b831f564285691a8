import itertools
import random
import time
from fractions import Fraction

import pytest

from infdilog import bloch, cluster, dilog, verify
from infdilog.fields import GF, QQ, Field, FieldMismatchError, RationalField
from infdilog.series import TruncatedSeries, random_series


def test_oracle_agreement_check():
    report = verify.check_oracle_agreement(2, 3, trials=50)
    assert report.passed and report.valid == 50
    with pytest.raises(ValueError):
        verify.check_oracle_agreement(4, 5)


def test_pentagon_check_both_characteristics():
    assert verify.check_pentagon(m=3, w=4, trials=25).passed
    # over GF(p) the five-term relation of li2p is a named dual identity
    assert verify.check_named_identity("pentagon", 5, trials=25).passed
    with pytest.raises(ValueError):
        verify.check_pentagon(2, 4)


def test_cluster_char0_check():
    report = verify.check_cluster_char0("A2", 2, 3, trials=30)
    assert report.passed and report.valid == 30
    report = verify.check_cluster_char0("B2", 3, 4, trials=20)
    assert report.passed and report.params["theta"] == [1, 2]
    report = verify.check_cluster_char0("A1", 2, 3, trials=20)
    assert report.passed
    with pytest.raises(ValueError):
        verify.check_cluster_char0("A2", 2, 4)


def test_cluster_char0_rejects_aperiodic_schedule():
    matrix, schedule = cluster.builtin_pattern("A2")
    broken = cluster.MutationSchedule(directions=(0, 1, 0), nu=(0, 1))
    with pytest.raises(ValueError):
        verify.check_cluster_char0((matrix, broken), 2, 3, trials=5)


def test_cluster_charp_modes():
    exhaustive = verify.check_cluster_charp("A2", 5)
    assert exhaustive.passed
    assert exhaustive.attempted == 5 ** 4
    assert exhaustive.valid == 150
    sampled = verify.check_cluster_charp("A2", 7, trials=40)
    assert sampled.passed and sampled.valid == 40
    # over GF(3) the validity filter empties the A2 point space: exhaustive
    # enumeration certifies the vacuous statement, random sampling cannot
    empty = verify.check_cluster_charp("A2", 3)
    assert empty.passed and empty.valid == 0
    starved = verify.check_cluster_charp("A2", 3, trials=3)
    assert starved.verdict == "insufficient-valid-samples"
    # 37^4 points exceed EXHAUSTIVE_LIMIT: without a trial count there is no mode
    with pytest.raises(ValueError):
        verify.check_cluster_charp("A2", 37)


def test_cluster_charp_builds_the_matrix_path_once(monkeypatch):
    built = []
    original = cluster.ExchangeMatrix.__init__

    def counting(self, rows):
        built.append(rows)
        original(self, rows)

    monkeypatch.setattr(cluster.ExchangeMatrix, "__init__", counting)
    counts = {}
    for p in (5, 7):
        built.clear()
        assert verify.check_cluster_charp("A2", p).valid > 0
        counts[p] = len(built)
    # the parsed matrix, one per schedule step, and nu of the matrix; no
    # matrix is rebuilt per point, so the count does not grow with p^4
    assert counts == {5: 7, 7: 7}


def test_a_pattern_is_validated_once_per_check(monkeypatch):
    patterns = {"built-in": "A2", "hand-built": cluster.builtin_pattern("A2")}
    calls = []
    original = cluster.MutationSchedule.validate

    def counting(self, matrix):
        calls.append(self)
        original(self, matrix)

    monkeypatch.setattr(cluster.MutationSchedule, "validate", counting)
    checks = {
        "cluster0": lambda pattern: verify.check_cluster_char0(pattern, 2, 3, trials=5),
        "clusterp": lambda pattern: verify.check_cluster_charp(pattern, 5),
        "lemma": lambda pattern: verify.check_lemma_wedge(pattern, trials=2),
        "theta-invariance": verify.check_theta_invariance,
        "involution": lambda pattern: verify.check_mutation_involution(pattern, trials=5),
        "periodicity": lambda pattern: verify.check_periodicity_report(pattern, trials=5),
    }
    counts = {}
    for family, check in checks.items():
        for kind, pattern in patterns.items():
            calls.clear()
            assert check(pattern).passed
            counts[family, kind] = len(calls)
    # a built-in is validated when builtin_pattern makes it and a hand-built
    # pair when the check resolves it, however many points walk the schedule
    assert counts == {(family, kind): 1 for family in checks for kind in patterns}


def test_periodicity_builds_no_matrix_per_point(monkeypatch):
    built = []
    original = cluster.ExchangeMatrix.__init__
    monkeypatch.setattr(cluster.ExchangeMatrix, "__init__",
                        lambda self, rows: built.append(rows) or original(self, rows))
    counts = {}
    for trials in (5, 50):
        built.clear()
        assert verify.check_periodicity_report("B2", trials=trials).valid == trials
        counts[trials] = len(built)
    # the parsed matrix, the six steps of the schedule's path and nu of the matrix
    assert counts == {5: 8, 50: 8}


def test_a_pattern_reports_under_its_schedule_name():
    matrix, schedule = cluster.builtin_pattern("A2")
    bare = cluster.MutationSchedule(schedule.directions, schedule.nu)
    named = cluster.MutationSchedule(schedule.directions, schedule.nu, name="mirror")
    assert verify.check_periodicity_report((matrix, bare), trials=3).name == "periodicity[custom]"
    report = verify.check_cluster_char0((matrix, named), 2, 3, trials=3)
    assert report.name == "cluster0[mirror,m=2,w=3]" and report.params["pattern"] == "mirror"
    assert verify.check_theta_invariance("A2").params["pattern"] == "A2"


@pytest.mark.parametrize("call", [
    lambda pattern: verify.check_cluster_char0(pattern, 2, 3, trials=5),
    lambda pattern: verify.check_cluster_charp(pattern, 5),
    lambda pattern: verify.check_lemma_wedge(pattern, trials=2),
    lambda pattern: verify.check_theta_invariance(pattern),
    lambda pattern: verify.check_mutation_involution(pattern, trials=5),
    lambda pattern: verify.check_periodicity_report(pattern, trials=5),
], ids=["cluster0", "clusterp", "lemma", "theta-invariance", "involution", "periodicity"])
def test_a_hand_built_pattern_is_validated(call):
    matrix, _ = cluster.builtin_pattern("A2")
    with pytest.raises(ValueError, match="direction 2 out of range"):
        call((matrix, cluster.MutationSchedule((0, 2), (0, 1))))


def test_named_identity_checks():
    for name in sorted(verify.NAMED_IDENTITIES):
        report = verify.check_named_identity(name, 5)
        assert report.passed, report.name
    with pytest.raises(ValueError):
        verify.check_named_identity("ptolemy", 5)


def test_four_term_hand_trace():
    f5 = GF(5)
    r, s = f5.element(2), f5.element(3)
    parts = [
        dilog.pounds1(r),
        dilog.pounds1(s),
        r ** 5 * dilog.pounds1(s / r),
        (s - 1) ** 5 * dilog.pounds1((1 - r) / (1 - s)),
    ]
    assert [x.value for x in parts] == [4, 3, 3, 1]
    assert parts[0] - parts[1] + parts[2] + parts[3] == f5.zero


def _four_term_reference(field, coords):
    """Reference: the four-term judge on field elements."""
    p = field.characteristic
    r_, s_ = coords
    if r_ in (0, 1) or s_ in (0, 1) or r_ == s_:
        return None
    r, s = field.element(r_), field.element(s_)
    total = (dilog.pounds1(r) - dilog.pounds1(s) + r ** p * dilog.pounds1(s / r)
             + (s - 1) ** p * dilog.pounds1((1 - r) / (1 - s)))
    return {"ok": False, "inputs": {"r": str(r_), "s": str(s_)}, "value": str(total)} if total else {"ok": True}


def _a2_pentagon_substitution_reference(field, coords):
    """Reference: li2p summed over the five pentagon arguments as written, at
    x = r + r(1 - r)t and y = s + s(1 - s)t, on field elements."""
    r_, s_ = coords
    if r_ in (0, 1) or s_ in (0, 1) or r_ == s_:
        return None
    r, s = field.element(r_), field.element(s_)
    x = TruncatedSeries.from_coeffs(field, [r, r * (1 - r)])
    y = TruncatedSeries.from_coeffs(field, [s, s * (1 - s)])
    one = TruncatedSeries.one(field, 2)
    terms = [(1, x), (-1, y), (1, y / x), (-1, (one - x.invert()) / (one - y.invert())),
             (1, (one - x) / (one - y))]
    total = field.zero
    for sign, arg in terms:
        total = total + sign * dilog.li2p(arg)
    return {"ok": False, "inputs": {"r": str(r_), "s": str(s_)}, "value": str(total)} if total else {"ok": True}


@pytest.mark.parametrize("name, reference, value_name", [
    ("four_term", _four_term_reference, "pounds1"),
    ("a2_pentagon_substitution", _a2_pentagon_substitution_reference, "li2p"),
])
def test_residue_judges_match_the_element_judges(monkeypatch, name, reference, value_name):
    """Every point of GF(43)^2, judged by one judge built once as a check builds it:
    the same witness, and the same dilogarithm arguments."""
    field = GF(43)
    judge = verify.NAMED_IDENTITIES[name][0](field)
    seen = []
    original = getattr(dilog, value_name)
    monkeypatch.setattr(dilog, value_name, lambda arg: seen.append(arg) or original(arg))
    valid = 0
    for coords in itertools.product(range(43), repeat=2):
        got, got_args = judge(coords), seen[:]
        seen.clear()
        assert got == reference(field, coords), coords
        assert got_args == seen, coords
        seen.clear()
        valid += got is not None
    assert valid == 41 * 40


def _count_inversions(monkeypatch):
    calls = []
    original = TruncatedSeries.invert
    monkeypatch.setattr(TruncatedSeries, "invert", lambda self: calls.append(self) or original(self))
    return calls


def test_pentagon_substitution_inverts_once_per_coordinate(monkeypatch):
    """1/x and 1/(1 - x) are made once per flat coordinate of a check: 2 * 41 at p = 43."""
    calls = _count_inversions(monkeypatch)
    report = verify.check_named_identity("a2_pentagon_substitution", 43)
    assert report.passed and report.valid == 41 * 40
    first = len(calls)
    assert first <= 2 * 41
    # the memo belongs to the check: a second check inverts again
    verify.check_named_identity("a2_pentagon_substitution", 43)
    assert len(calls) == 2 * first


def test_pentagon_substitution_memo_is_filled_on_first_use(monkeypatch):
    """At p ~ 10^9 only the coordinates of attempted points are inverted, two of them each."""
    calls = _count_inversions(monkeypatch)
    report = verify.check_named_identity("a2_pentagon_substitution", 1000000007, trials=3)
    assert report.passed and report.attempted >= 3
    assert len(calls) <= 4 * report.attempted


def test_vanishing_refuses_a_value_or_weight_of_another_field():
    f5, f7 = GF(5), GF(7)
    with pytest.raises(FieldMismatchError):
        verify._vanishing(f7, f5.element, [(1, 2)], dict)
    with pytest.raises(FieldMismatchError):
        verify._vanishing(f7, f7.element, [(f5.element(2), 3)], dict)
    # a weight of the same field, or an int or a Fraction, is accepted
    witness = verify._vanishing(f7, f7.element, [(f7.element(2), 3), (Fraction(1, 2), 2), (-7, 4)], dict)
    assert witness == {"ok": True}


def test_passing_points_build_no_witness_text(monkeypatch):
    """Only a non-zero sum calls the inputs thunk and renders a series."""
    def refuse(*args):
        raise AssertionError("witness text built for a passing point")

    field = GF(7)
    assert verify._vanishing(field, field.element, [(1, 3), (-1, 3)], refuse) == {"ok": True}
    monkeypatch.setattr(TruncatedSeries, "__str__", refuse)
    for report in (verify.check_cluster_charp("A2", 5), verify.check_cluster_charp("B2", 7, trials=20),
                   verify.check_pentagon(2, 3, trials=5), verify.check_vanish_constants(2, 3, trials=5),
                   verify.check_named_identity("pentagon", 7, trials=20),
                   verify.check_cluster_char0("A2", 2, 3, trials=5), verify.check_welldef(2, 3, trials=5),
                   verify.check_oracle_agreement(2, 3, trials=5), verify.check_scale_weight(3, 4, trials=5),
                   verify.check_mutation_involution("B2", trials=5),
                   verify.check_lemma_wedge("A2", trials=2), verify.check_lemma_wedge(
                       "B2", field=GF(5), precision=4, exhaustive_constants=True),
                   *(verify.check_named_identity(name, 7) for name in verify.NAMED_IDENTITIES)):
        assert report.passed and report.valid > 0, report.name


def test_lemma_wedge_check():
    report = verify.check_lemma_wedge("A2", trials=8)
    assert report.passed and report.valid == 8
    assert {"trials", "height"} <= set(report.params)
    report = verify.check_lemma_wedge("B2", field=GF(7), exhaustive_constants=True)
    assert report.passed and report.valid > 0
    # the constants are enumerated and the higher coefficients drawn below p,
    # so the ignored trial count and height are not params
    assert not {"trials", "height"} & set(report.params)
    # over GF(3) every A2 constant point is rejected: nothing is certified
    empty = verify.check_lemma_wedge("A2", field=GF(3), precision=3, exhaustive_constants=True)
    assert empty.verdict == "insufficient-valid-samples"
    assert (empty.attempted, empty.valid, empty.rejected) == (9, 0, 9)


def test_lemma_wedge_decides_every_point_at_large_height():
    # trajectory constants of height 10^9 have large prime factors; the
    # coprime-base zero test decides each point without factoring them
    report = verify.check_lemma_wedge("B2", QQ, precision=4, trials=10, height=10**9)
    assert report.passed and report.valid == 10 and report.failed == 0


def test_lemma_ledger_sign_does_not_change_the_zero_test():
    # sum theta * beta ^ (1 - beta) differs from sum theta * (-beta) ^ (1 - beta)
    # by (-1) ^ (1 - beta), which is 2-torsion; under the all-ones symmetrizer
    # the B2 ledgers fail, over QQ at N = 2 in the mixed component and at N = 1,
    # where there is no log, in the constant component
    rng = random.Random(61)
    outcomes = {}
    for pattern, field, precision in (("A2", QQ, 4), ("B2", QQ, 4), ("B2", QQ, 2), ("B2", QQ, 1),
                                      ("A2", GF(7), 5), ("B2", GF(7), 5)):
        trajectories = []
        _, _, _, judge = verify._cluster_judge(pattern, lambda terms, inputs: trajectories.append(terms))
        while len(trajectories) < 25:
            judge(tuple(random_series(field, precision, rng, 10) for _ in range(2)))
        for terms, ones in itertools.product(trajectories, (False, True)):
            weighted = [(1 if ones else weight, beta) for weight, beta in terms]
            result = bloch.zero_test_rational(bloch.WedgeLedger([(w, b, 1 - b) for w, b in weighted]))
            assert result == bloch.zero_test_rational(bloch.WedgeLedger([(w, -b, 1 - b) for w, b in weighted]))
            key = (pattern, ones, result.failing_component)
            outcomes[key] = outcomes.get(key, 0) + 1
    assert ("B2", True, None) not in outcomes, outcomes
    assert {component for _, _, component in outcomes} == {None, "infinitesimal", "mixed", "constants"}, outcomes


def test_welldef_check():
    report = verify.check_welldef(2, 3, trials=20, perturbations=5)
    assert report.passed
    report = verify.check_welldef(4, 7, trials=10, perturbations=3)
    assert report.passed


def test_structural_checks():
    assert verify.check_scale_weight(2, 3, trials=20).passed
    assert verify.check_vanish_constants(m=3, w=5, trials=20).passed
    assert verify.check_li2p_lift(3).passed
    assert verify.check_li2p_lift(11).passed
    assert verify.check_theta_invariance("B2").passed
    assert verify.check_mutation_involution("A2", trials=100).passed
    assert verify.check_periodicity_report("B2", trials=20).passed


def test_periodicity_report_verdicts():
    # A2 over GF(3) has no valid point: the first trial spends its attempts,
    # every one of them counted, and that is too few samples, not a failure
    starved = verify.check_periodicity_report("A2", field=GF(3), trials=5)
    assert starved.verdict == "insufficient-valid-samples"
    assert starved.attempted == starved.rejected == verify.RESAMPLE_FACTOR
    assert starved.failed == 0 and starved.witnesses == []
    assert starved.params == {"pattern": "A2", "field": "fp3", "precision": 2, "nu": [1, 0],
                              "trials": 5, "height": 10, "seed": 0}
    # one mutation of A1 returns the matrix but inverts y: every point disagrees
    a1 = (cluster.ExchangeMatrix([[0]]), cluster.MutationSchedule(directions=(0,), nu=(0,)))
    refuted = verify.check_periodicity_report(a1, trials=5)
    assert refuted.verdict == "fail" and refuted.failed == refuted.valid == 5
    assert list(refuted.witnesses[0]["inputs"]) == ["alpha_1"]
    assert refuted.witnesses[0]["value"] == "y-values disagree"
    # three mutations of A2 do not return the matrix
    a2 = (cluster.ExchangeMatrix([[0, -1], [1, 0]]),
          cluster.MutationSchedule(directions=(0, 1, 0), nu=(0, 1)))
    aperiodic = verify.check_periodicity_report(a2, trials=5)
    assert aperiodic.verdict == "fail" and aperiodic.failed == 1
    assert (aperiodic.attempted, aperiodic.valid) == (0, 0)


@pytest.mark.parametrize("call", [
    lambda: verify.check_pentagon(m=2, w=3, trials=0),
    lambda: verify.check_named_identity("pentagon", 5, trials=0),
    lambda: verify.check_cluster_char0("A2", 2, 3, trials=0),
    lambda: verify.check_cluster_charp("A2", 5, trials=0),
    lambda: verify.check_named_identity("elementary", 5, trials=0),
    lambda: verify.check_mutation_involution("A2", trials=0),
    lambda: verify.check_periodicity_report("A2", trials=0),
    lambda: verify.check_welldef(2, 3, perturbations=-5),
    lambda: verify.check_li2p_lift(3, perturbations=-1),
    lambda: verify.check_lemma_wedge("B2", field=GF(5), precision=6, trials=3),
    lambda: verify.check_lemma_wedge("B2", field=GF(3), precision=6, trials=3),
    lambda: verify.check_lemma_wedge("A2", exhaustive_constants=True),
    lambda: verify.check_lemma_wedge("A2", field=GF(7), precision=2, exhaustive_constants=True),
    lambda: verify.check_lemma_wedge("B2", field=GF(5), precision=1, trials=3),
], ids=["pentagon-q", "pentagon-p", "cluster0", "clusterp", "named", "involution",
        "periodicity-report", "welldef", "li2p-lift",
        "lemma-precision-gf5", "lemma-precision-gf3", "lemma-exhaustive-q", "lemma-precision-2-gf7",
        "lemma-precision-1-gf5"])
def test_counts_that_would_make_a_vacuous_verdict_are_refused(call):
    with pytest.raises(ValueError):
        call()


def test_li2p_lift_obeys_the_exhaustive_limit():
    # GF(1009)^2 has 1 018 081 points, each lifted to precision 1009: refused before any is judged
    start = time.perf_counter()
    with pytest.raises(ValueError, match="points, more than the exhaustive limit 1000000"):
        verify.check_li2p_lift(1009)
    assert time.perf_counter() - start < 1


def _wrap(owner, name, make):
    """Installer of a defect: owner.name becomes make(original)."""
    return lambda monkeypatch: monkeypatch.setattr(owner, name, make(getattr(owner, name)))


def _dropped_y_k_b(original):
    def mutate(seed, k):
        # drop the y_k^b factor of every neighbour with b = b_ki > 0
        mutated = original(seed, k)
        ys = list(mutated.ys)
        for i in range(seed.matrix.n):
            b = seed.matrix.entry(k, i)
            if i != k and b > 0:
                ys[i] = ys[i] * seed.ys[k].invert() ** b
        return cluster.YSeed(mutated.matrix, tuple(ys))
    return mutate


def _bumped_rational_log(original):
    def log_circ(self, a, da):
        nums, den = original(self, a, da)
        return self.normalize([*nums[:2], nums[2] + den, *nums[3:]], den) if len(nums) > 2 else (nums, den)
    return log_circ


def _bumped_inverse(original):
    def invert(self):
        inverse = original(self)
        if inverse.precision < 2:
            return inverse
        c = inverse.coeffs
        return TruncatedSeries.from_coeffs(inverse.field, [c[0], c[1] + 1, *c[2:]])
    return invert


def _pair_sums_mutant(terms, pair):
    """Installer of a defective bloch._pair_sums, in bloch and in dilog, which binds it by name."""
    def pair_sums(rows, pairs):
        return [sum(c * pair(lo, ro, f, g) for c, lo, ro in terms(rows)) for f, g in pairs]

    def install(monkeypatch):
        for module in (bloch, dilog):
            monkeypatch.setattr(module, "_pair_sums", pair_sums)
    return install


def _lemma_wedge_gf7():
    return verify.check_lemma_wedge("B2", field=GF(7), exhaustive_constants=True)


def _lemma_a2_witness(value):
    """The first witness of lemma[A2,q,N=6,random[3]]: its first point, and ell_1 ^ ell_2 there."""
    return {"inputs": {"alpha_1": "1/3 + -7/4*t + 1/5*t^2 + 1*t^3 + -3*t^4 + 0*t^5",
                       "alpha_2": "1/5 + 1*t + -1/3*t^2 + 6*t^3 + 3/5*t^4 + 0*t^5"},
            "value": f"infinitesimal: (ell_1 ^ ell_2) evaluates to {value}"}


# The kill matrix: seeded defect -> (installer, killers).  Each killer is a check
# that must fail under the defect alone, with its report name, its first witness
# as the report writes it, and (valid, failed) where the defect fixes them.  The
# tests after the table run its rows, one test per family of defects.
KILL_MATRIX = {
    "li_direct + 1": (_wrap(dilog, "li_direct", lambda li: lambda m, w, a: li(m, w, a) + 1), [
        (lambda: verify.check_pentagon(m=2, w=3, trials=5), "pentagon[q,m=2,w=3]",
         {"inputs": {"a": "10 + 4/5*t", "b": "-2/5 + 8/9*t"}, "value": "1"}, (5, 5)),
        (lambda: verify.check_cluster_char0("A2", 2, 3, trials=5), "cluster0[A2,m=2,w=3]",
         {"inputs": {"alpha_1": "-2/5 + 1/4*t", "alpha_2": "-9/10 + -1/3*t"}, "value": "5"}, None),
        (lambda: verify.check_vanish_constants(m=2, w=3, trials=5), "vanish-constants[m=2,w=3]",
         {"inputs": {"c": "-5/7"}, "value": "1"}, None),
        (lambda: verify.check_oracle_agreement(2, 3, trials=3), "oracle-agreement[m=2,w=3]",
         {"inputs": {"a": "3 + -5/2*t"}, "value": "direct 701/576 vs closed 125/576"}, None),
        # lam^w * (li + 1) differs from li(lam a) + 1 unless lam^w = 1
        (lambda: verify.check_scale_weight(2, 3, trials=3), "scale-weight[m=2,w=3]",
         {"inputs": {"a": "7/3 + -5/3*t", "lam": "-5/6"}, "value": "97271/112896 vs -242875/338688"}, None),
    ]),
    # pounds1 + 1 leaves r^p + (s - 1)^p = r + s - 1 in the four-term sum,
    # which vanishes only on the line r + s = 1
    "pounds1 + 1": (_wrap(dilog, "pounds1", lambda pounds1: lambda x: pounds1(x) + 1), [
        (lambda: verify.check_named_identity("four_term", 7), "named[four_term,p=7,exhaustive]",
         {"inputs": {"r": "2", "s": "3"}, "value": "4"}, (20, 16)),
    ]),
    "li_via_lift * 2": (_wrap(dilog, "li_via_lift", lambda li: lambda m, w, lift: li(m, w, lift) * 2), [
        (lambda: verify.check_welldef(2, 3, trials=3), "welldef[m=2,w=3]",
         {"inputs": {"lift": "1/2 + -1/4*t + 0*t^2"}, "value": "lift 1/4 vs direct 1/8"}, None),
    ]),
    # the zero-padded lift still agrees with li_direct; a perturbed degree-m
    # coefficient moves the value
    "li_via_lift + lift_m": (_wrap(dilog, "li_via_lift",
                                   lambda li: lambda m, w, lift: li(m, w, lift) + lift.coeff(m)), [
        (lambda: verify.check_welldef(2, 3, trials=3), "welldef[m=2,w=3]",
         {"inputs": {"lift": "1/2 + -1/4*t + -7/4*t^2"}, "value": "-13/8 != 1/8"}, None),
    ]),
    # involution reaches the b > 0 branch of YSeed.mutate that no battery schedule takes
    "mutation drops y_k^b": (_wrap(cluster.YSeed, "mutate", _dropped_y_k_b), [
        (lambda: verify.check_mutation_involution("A2", trials=3), "involution[A2]",
         {"inputs": {"direction": "1", "y_1": "-1/3 + 1/2*t", "y_2": "-1/2 + 6/5*t"},
          "value": "seed not restored"}, None),
        (lambda: verify.check_mutation_involution("B2", trials=3), "involution[B2]",
         {"inputs": {"direction": "1", "y_1": "3/5 + -7/3*t", "y_2": "5/9 + -9/5*t"},
          "value": "seed not restored"}, None),
    ]),
    # B2's symmetrizer is (1, 2), so its weighted sums fail and all ones does
    # not skew-symmetrize its first mutation; A2's is all ones already
    "all-ones symmetrizer": (_wrap(cluster, "skew_symmetrizer", lambda _: lambda matrix: (1,) * matrix.n), [
        (lambda: verify.check_cluster_char0("B2", 2, 3, trials=3), "cluster0[B2,m=2,w=3]",
         {"inputs": {"alpha_1": "7/6 + 1*t", "alpha_2": "1/3 + 1*t"}, "value": "-5342419395/2723446999"}, None),
        (lambda: verify.check_cluster_charp("B2", 5), "clusterp[B2,p=5,exhaustive]",
         {"inputs": {"alpha_1": "2 + 0*t", "alpha_2": "1 + 1*t"}, "value": "li2p sum 4"}, None),
        (lambda: verify.check_lemma_wedge("B2", trials=3), "lemma[B2,q,N=6,random[3]]",
         {"inputs": {"alpha_1": "5/3 + -2/7*t + 5/2*t^2 + 7/9*t^3 + 9/2*t^4 + 0*t^5",
                     "alpha_2": "3/2 + -3/2*t + -1/5*t^2 + 8/3*t^3 + 2/9*t^4 + 10/7*t^5"},
          "value": "infinitesimal: (ell_1 ^ ell_2) evaluates to -129/19600"}, None),
        (_lemma_wedge_gf7, "lemma[B2,fp7,N=6,exhaustive-constants]",
         {"inputs": {"alpha_1": "1 + 2*t + 0*t^2 + 5*t^3 + 1*t^4 + 6*t^5",
                     "alpha_2": "1 + 3*t + 3*t^2 + 3*t^3 + 3*t^4 + 0*t^5"},
          "value": "infinitesimal: (ell_1 ^ ell_2) evaluates to 1"}, None),
        (lambda: verify.check_theta_invariance("B2"), "theta-invariance[B2]",
         {"inputs": {"step": "0"}, "value": "theta does not skew-symmetrize [[0, 1], [-2, 0]]"}, None),
    ]),
    # the t^2 coefficient of every rational log_circ off by one: each family
    # that reads a log at precision 3 or more fails
    "rational log t^2 + 1": (_wrap(RationalField, "log_circ", _bumped_rational_log), [
        (lambda: verify.check_oracle_agreement(3, 4, trials=3), "oracle-agreement[m=3,w=4]",
         {"inputs": {"a": "-5/4 + 5/9*t + -4/3*t^2"},
          "value": "direct 1374656/14348907 vs closed 674816/14348907"}, None),
        (lambda: verify.check_pentagon(m=3, w=4, trials=3), "pentagon[q,m=3,w=4]",
         {"inputs": {"a": "6 + -2*t + -2/9*t^2", "b": "2 + 7/9*t + 10/7*t^2"}, "value": "2477/10800"}, None),
        (lambda: verify.check_welldef(3, 4, trials=3), "welldef[m=3,w=4]",
         {"inputs": {"lift": "-4 + -2/9*t + -7/6*t^2 + 0*t^3"},
          "value": "lift 313/2187000 vs direct 1393/2187000"}, None),
        (lambda: verify.check_scale_weight(3, 4, trials=3), "scale-weight[m=3,w=4]",
         {"inputs": {"a": "3 + -1/4*t + 4*t^2", "lam": "3/2"}, "value": "-1531/32768 vs -2011/32768"}, None),
        (lambda: verify.check_cluster_char0("A2", 3, 4, trials=3), "cluster0[A2,m=3,w=4]",
         {"inputs": {"alpha_1": "-1/3 + 2*t + 7/2*t^2", "alpha_2": "-7/8 + -9/10*t + -3/7*t^2"},
          "value": "-622674/4375"}, None),
        (lambda: verify.check_lemma_wedge("A2", trials=3), "lemma[A2,q,N=6,random[3]]",
         _lemma_a2_witness("-499/912"), None),
    ]),
    # the t coefficient of every series inverse off by one, in both characteristics
    "series inverse t + 1": (_wrap(TruncatedSeries, "invert", _bumped_inverse), [
        (lambda: verify.check_pentagon(m=2, w=3, trials=3), "pentagon[q,m=2,w=3]",
         {"inputs": {"a": "10 + 4/5*t", "b": "-2/5 + 8/9*t"}, "value": "147472336957/638820000"}, None),
        (lambda: verify.check_named_identity("pentagon", 5), "named[pentagon,p=5,exhaustive]",
         {"inputs": {"a": "2 + 0*t", "b": "3 + 0*t"}, "value": "2"}, (150, 150)),
        (lambda: verify.check_cluster_char0("A2", 2, 3, trials=3), "cluster0[A2,m=2,w=3]",
         {"inputs": {"alpha_1": "-2/5 + 1/4*t", "alpha_2": "-9/10 + -1/3*t"},
          "value": "38585224133773/131403600000"}, None),
        (lambda: verify.check_cluster_charp("A2", 5), "clusterp[A2,p=5,exhaustive]",
         {"inputs": {"alpha_1": "1 + 0*t", "alpha_2": "1 + 0*t"}, "value": "li2p sum 1"}, None),
        (lambda: verify.check_mutation_involution("A2", trials=3), "involution[A2]",
         {"inputs": {"direction": "1", "y_1": "-1/3 + 1/2*t", "y_2": "-1/2 + 6/5*t"},
          "value": "seed not restored"}, None),
        (lambda: verify.check_periodicity_report("A2", trials=3), "periodicity[A2]",
         {"inputs": {"alpha_1": "-7/3 + 6/5*t", "alpha_2": "10/9 + -1/6*t"}, "value": "y-values disagree"}, None),
        (lambda: verify.check_named_identity("involution", 5), "named[involution,p=5,exhaustive]",
         {"inputs": {"y": "2 + 0*t"}, "value": "2"}, None),
        # the per-coordinate inverses of the pentagon substitution go through invert in each check
        (lambda: verify.check_named_identity("a2_pentagon_substitution", 7),
         "named[a2_pentagon_substitution,p=7,exhaustive]", {"inputs": {"r": "2", "s": "3"}, "value": "6"}, (20, 14)),
    ]),
    # a constant error of 1 per li2p value cannot cancel in these sums: B2's
    # weights (1, 2, 1, 2, 1, 2) add to 9, which is not 0 mod 5, the pentagon
    # signs add to 1, and A2's five unit weights add to 5, which is not 0 mod 7
    # (they would cancel mod 5); every valid point fails
    "li2p + 1": (_wrap(dilog, "li2p", lambda li2p: lambda y: li2p(y) + 1), [
        (lambda: verify.check_cluster_charp("B2", 5), "clusterp[B2,p=5,exhaustive]",
         {"inputs": {"alpha_1": "2 + 0*t", "alpha_2": "1 + 0*t"}, "value": "li2p sum 4"}, (100, 100)),
        (lambda: verify.check_named_identity("a2_pentagon_substitution", 5),
         "named[a2_pentagon_substitution,p=5,exhaustive]", {"inputs": {"r": "2", "s": "3"}, "value": "1"}, (6, 6)),
        (lambda: verify.check_li2p_lift(5), "li2p-lift[p=5]",
         {"inputs": {"lift": "2 + 0*t + 0*t^2 + 0*t^3 + 0*t^4"}, "value": "0 != 1"}, (15, 15)),
        (lambda: verify.check_named_identity("pentagon", 7), "named[pentagon,p=7,exhaustive]",
         {"inputs": {"a": "2 + 0*t", "b": "3 + 0*t"}, "value": "1"}, (980, 980)),
        (lambda: verify.check_named_identity("elementary", 7), "named[elementary,p=7,exhaustive]",
         {"inputs": {"z": "2 + 0*t"}, "value": "2"}, (35, 35)),
        (lambda: verify.check_named_identity("involution", 7), "named[involution,p=7,exhaustive]",
         {"inputs": {"y": "2 + 0*t"}, "value": "2"}, (35, 35)),
        (lambda: verify.check_named_identity("a2_five_term_charp", 7), "named[a2_five_term_charp,p=7,exhaustive]",
         {"inputs": {"y1": "2 + 0*t", "y2": "2 + 0*t"}, "value": "5"}, (980, 980)),
    ]),
    "zero test says nonzero": (_wrap(bloch, "zero_test_rational", lambda _: lambda ledger: bloch.ZeroTestResult(
        "nonzero", None, "corrupted")), [
        (_lemma_wedge_gf7, "lemma[B2,fp7,N=6,exhaustive-constants]",
         {"inputs": {"alpha_1": "1 + 2*t + 0*t^2 + 5*t^3 + 1*t^4 + 6*t^5",
                     "alpha_2": "1 + 3*t + 3*t^2 + 3*t^3 + 3*t^4 + 0*t^5"}, "value": "None: corrupted"}, (16, 16)),
    ]),
    # the one-pass pair evaluator behind the zero test and both lift sums
    "pair sums drop the last term": (_pair_sums_mutant(
        lambda rows: rows[:-1], lambda lo, ro, f, g: lo[f] * ro[g] - lo[g] * ro[f]), [
        (lambda: verify.check_lemma_wedge("A2", trials=3), "lemma[A2,q,N=6,random[3]]", _lemma_a2_witness("625/72"), None),
        (lambda: verify.check_welldef(3, 5, trials=3), "welldef[m=3,w=5]",
         {"inputs": {"lift": "-1 + 10/3*t + -1*t^2 + 0*t^3 + 0*t^4"}, "value": "lift 0 vs direct -119825/2916"}, None),
        (lambda: verify.check_li2p_lift(5), "li2p-lift[p=5]",
         {"inputs": {"lift": "2 + 1*t + 0*t^2 + 0*t^3 + 0*t^4"}, "value": "0 != 3"}, None),
    ]),
    "pair sums lose antisymmetry": (_pair_sums_mutant(
        lambda rows: rows, lambda lo, ro, f, g: lo[f] * ro[g]), [
        (lambda: verify.check_lemma_wedge("A2", trials=3), "lemma[A2,q,N=6,random[3]]",
         _lemma_a2_witness("304774037/11089920"), None),
        (lambda: verify.check_welldef(3, 5, trials=3), "welldef[m=3,w=5]",
         {"inputs": {"lift": "-1 + 10/3*t + -1*t^2 + 0*t^3 + 0*t^4"}, "value": "lift 25325/2916 vs direct -119825/2916"},
         None),
        (lambda: verify.check_li2p_lift(5), "li2p-lift[p=5]",
         {"inputs": {"lift": "2 + 1*t + 0*t^2 + 0*t^3 + 0*t^4"}, "value": "4 != 3"}, None),
    ]),
}


def _kill(monkeypatch, *defects):
    """Install each defect alone, in turn, and fail every one of its killers; the last stays installed."""
    for defect in defects:
        monkeypatch.undo()
        install, killers = KILL_MATRIX[defect]
        install(monkeypatch)
        for check, name, witness, counts in killers:
            report = check()
            assert (report.name, report.verdict) == (name, "fail"), defect
            assert report.witnesses[0] == witness, (defect, name)
            if counts is not None:
                assert (report.valid, report.failed) == counts, (defect, name)


def test_corrupted_dilogarithm_is_caught(monkeypatch):
    _kill(monkeypatch, "li_direct + 1", "pounds1 + 1")


def test_corrupted_lift_and_mutation_are_caught(monkeypatch):
    _kill(monkeypatch, "li_via_lift * 2", "li_via_lift + lift_m", "mutation drops y_k^b")


def test_all_ones_symmetrizer_is_caught(monkeypatch):
    _kill(monkeypatch, "all-ones symmetrizer")
    assert verify.check_cluster_char0("A2", 2, 3, trials=3).passed


def test_wrong_rational_log_is_caught(monkeypatch):
    _kill(monkeypatch, "rational log t^2 + 1")


def test_wrong_series_inverse_is_caught(monkeypatch):
    _kill(monkeypatch, "series inverse t + 1")


def test_corrupted_li2p_is_caught_exhaustively(monkeypatch):
    _kill(monkeypatch, "li2p + 1")


def test_corrupted_zero_test_is_caught_exhaustively(monkeypatch):
    _kill(monkeypatch, "zero test says nonzero")


def test_corrupted_pair_evaluator_is_caught(monkeypatch):
    _kill(monkeypatch, "pair sums drop the last term", "pair sums lose antisymmetry")


def _squared_li2p(y):
    s, a = y.coeff(0), y.coeff(1)
    return (a / (s * (1 - s))) ** 2 * dilog.pounds1(s)


# each mutant of li2p, built from the original; the last one breaks tangent
# linearity at one tangent only, which a random guard tangent can miss
LI2P_MUTANTS = {
    "li2p": lambda original: original,
    "plus-one": lambda original: lambda y: original(y) + 1,
    "ybar-squared": lambda original: _squared_li2p,
    "plus-one-at-tangent-3": lambda original: lambda y: original(y) + (1 if y.coeffs[1] == 3 else 0),
}

DUAL_CHECKS = {
    "clusterp[A2]": lambda p, seed: verify.check_cluster_charp("A2", p, seed=seed),
    "clusterp[B2]": lambda p, seed: verify.check_cluster_charp("B2", p, seed=seed),
    **{f"named[{name}]": (lambda p, seed, name=name: verify.check_named_identity(name, p, seed=seed))
       for name in ("elementary", "involution", "pentagon", "a2_five_term_charp")},
}


def _enumerate_every_point(report, p, dimension, judge):
    """The reference: the same judge over all of GF(p)^dimension, on a fresh report."""
    fresh = verify.CheckReport(name=report.name, params=dict(report.params))
    return verify._exhaust(fresh, itertools.product(range(p), repeat=dimension), judge)


@pytest.mark.parametrize("mutant", sorted(LI2P_MUTANTS))
def test_dual_checks_match_enumeration_of_every_point(monkeypatch, mutant):
    monkeypatch.setattr(dilog, "li2p", LI2P_MUTANTS[mutant](dilog.li2p))
    original = verify._check_coords
    seen = {}

    def capturing(family, subject, params, p, dimension, trials, seed, judge, dual=False):
        def counted(coords):
            seen["calls"] += 1
            return judge(coords)

        seen.update(dimension=dimension, judge=judge, calls=0)
        return original(family, subject, params, p, dimension, trials, seed, counted, dual)

    monkeypatch.setattr(verify, "_check_coords", capturing)
    verdicts = set()
    for (label, check), p, seed in itertools.product(DUAL_CHECKS.items(), (3, 5, 7), (0, 1)):
        report = check(p, seed)
        dimension = seen["dimension"]
        reference = _enumerate_every_point(report, p, dimension, seen["judge"])
        assert report.to_dict() == reference.to_dict(), (label, p, seed)
        verdicts.add(report.verdict)
        if report.verdict != "pass":
            assert seen["calls"] >= p ** dimension, (label, p, seed)
        elif mutant == "li2p":
            # the shortcut alone: n + 2 tangents at each of p^n constant points
            n = dimension // 2
            assert seen["calls"] == p ** n * (n + 2), (label, p, seed)
    assert verdicts == ({"pass"} if mutant == "li2p" else {"pass", "fail"})


@pytest.mark.parametrize("judge", [
    lambda coords: None if 3 in coords[1::2] else {"ok": True, "inputs": {}, "value": "0"},
    lambda coords: {"ok": not all(coords[1::2]), "inputs": {"coords": str(coords)}, "value": "1"},
], ids=["rejects-at-tangent-3", "fails-off-the-basis"])
def test_a_tangent_dependent_judge_is_enumerated(judge):
    report = verify._check_coords("synthetic", "judge", {}, 7, 4, None, 0, judge, dual=True)
    reference = _enumerate_every_point(report, 7, 4, judge)
    assert report.to_dict() == reference.to_dict()
    assert reference.rejected or reference.failed


def test_exhaustive_cluster_sum_walks_constant_points_only(monkeypatch):
    walks = []
    original = cluster.run_schedule
    monkeypatch.setattr(cluster, "run_schedule",
                        lambda *args, **kwargs: walks.append(1) or original(*args, **kwargs))
    report = verify.check_cluster_charp("A2", 17)
    assert (report.attempted, report.valid, report.verdict) == (83521, 60690, "pass")
    # 17^2 constant points at the zero, two basis and one guard tangent, where
    # enumerating every point walks the schedule 17^4 times
    assert len(walks) <= 17 ** 2 * 4


def test_unit_weights_take_no_field_product(monkeypatch):
    field = GF(7)
    args = [field.element(3), field.element(5)]
    made = []
    original = Field.element
    monkeypatch.setattr(Field, "element", lambda self, value: made.append(value) or original(self, value))
    witness = verify._vanishing(field, lambda x: x, [(1, arg) for arg in args], lambda: {"x": "3, 5"}, "sum ")
    assert made == []
    assert witness == {"ok": False, "inputs": {"x": "3, 5"}, "value": "sum 1"}


def test_reports_are_deterministic():
    first = verify.check_pentagon(m=2, w=3, trials=15, seed=9)
    second = verify.check_pentagon(m=2, w=3, trials=15, seed=9)
    assert first.to_dict() == second.to_dict()
    third = verify.check_pentagon(m=2, w=3, trials=15, seed=10)
    assert third.to_dict() != first.to_dict()


def test_suite_select_and_determinism():
    a = verify.run_suite(seed=0, select="check_oracle_agreement")
    b = verify.run_suite(seed=0, select="check_oracle_agreement")
    assert a.to_json_bytes() == b.to_json_bytes()
    assert len(a.checks) == 3 and a.all_pass
    text = a.to_text()
    assert "oracle-agreement[m=2,w=3]" in text and "3/3 checks passed" in text


def test_report_serialization_shape():
    report = verify.check_pentagon(2, 3, trials=5).to_dict()
    assert set(report) == {
        "name", "params", "attempted", "valid", "rejected",
        "failed", "witnesses", "verdict",
    }


def test_substitution_chain_ties_cluster_to_pentagon():
    # restrict the A2 (m=2, w=3) cluster sum to substituted dual points
    # x = r + r(1-r) t, y = s + s(1-s) t with initial point (x - 1, -y/x);
    # the recorded arguments recover the pentagon arguments through the
    # elementary and involution relations
    matrix, schedule = cluster.builtin_pattern("A2")
    theta = schedule.resolved_theta(matrix)
    rng = random.Random(23)
    one = TruncatedSeries.one(QQ, 2)
    hits = 0
    while hits < 30:
        r = QQ.random_element(rng)
        s = QQ.random_element(rng)
        if r.value in (0, 1) or s.value in (0, 1) or r == s:
            continue
        x = TruncatedSeries.from_coeffs(QQ, [r, r * (1 - r)])
        y = TruncatedSeries.from_coeffs(QQ, [s, s * (1 - s)])
        try:
            trajectory = cluster.run_schedule(matrix, (x - 1, -(y / x)), schedule)
        except cluster.InvalidPointError:
            continue
        arguments = [-step.value for step in trajectory.steps]
        if not all(arg.is_flat for arg in arguments):
            continue
        assert arguments[0] == one - x
        assert arguments[1] == y
        assert arguments[2] == (one - y) / (one - x)
        assert arguments[3] == (y - x) / (y * (one - x))
        assert arguments[4] == x / y
        total = QQ.zero
        for step, arg in zip(trajectory.steps, arguments):
            total = total + theta[step.direction] * dilog.li_direct(2, 3, arg)
        assert total == QQ.zero
        pentagon = QQ.zero
        from infdilog.bloch import pentagon_terms

        for sign, arg in pentagon_terms(x, y):
            pentagon = pentagon + sign * dilog.li_direct(2, 3, arg)
        assert pentagon == QQ.zero
        hits += 1
