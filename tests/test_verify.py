import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from infdilog import bloch, cluster, dilog, fields, verify
from infdilog.fields import GF, QQ, Field, FieldMismatchError, PrimeField, RationalField
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


def _reference_sum(field, value_of, terms, inputs):
    """The witness of sum weight * value_of(arg) over field elements, added one term at a time."""
    total = field.zero
    for weight, arg in terms:
        total = total + weight * value_of(arg)
    return {"ok": False, "inputs": inputs, "value": str(total)} if total else {"ok": True}


def _four_term_reference(field, coords):
    """Reference: (witness, terms) of the four-term sum of pounds1 on field elements; (None, None) if rejected."""
    p = field.characteristic
    r_, s_ = coords
    if r_ in (0, 1) or s_ in (0, 1) or r_ == s_:
        return None, None
    r, s = field.element(r_), field.element(s_)
    terms = [(1, r), (-1, s), (r ** p, s / r), ((s - 1) ** p, (1 - r) / (1 - s))]
    return _reference_sum(field, dilog.pounds1, terms, {"r": str(r_), "s": str(s_)}), terms


def _a2_pentagon_substitution_reference(field, coords):
    """Reference: (witness, terms) of li2p summed over the five pentagon arguments as written, at
    x = r + r(1 - r)t and y = s + s(1 - s)t, on field elements; (None, None) if rejected."""
    r_, s_ = coords
    if r_ in (0, 1) or s_ in (0, 1) or r_ == s_:
        return None, None
    r, s = field.element(r_), field.element(s_)
    x = TruncatedSeries.from_coeffs(field, [r, r * (1 - r)])
    y = TruncatedSeries.from_coeffs(field, [s, s * (1 - s)])
    one = TruncatedSeries.one(field, 2)
    terms = [(1, x), (-1, y), (1, y / x), (-1, (one - x.invert()) / (one - y.invert())),
             (1, (one - x) / (one - y))]
    return _reference_sum(field, dilog.li2p, terms, {"r": str(r_), "s": str(s_)}), terms


@pytest.mark.parametrize("name, reference, value_name", [
    ("four_term", _four_term_reference, "pounds1"),
    ("a2_pentagon_substitution", _a2_pentagon_substitution_reference, "li2p"),
])
def test_residue_judges_match_the_element_judges(monkeypatch, name, reference, value_name):
    """Every point of GF(43)^2, judged by one judge built once as a check builds it: the same witness,
    and the same sum: its ordered (weight, argument) terms, and the dilogarithm's value of each argument."""
    field = GF(43)
    judge = verify.NAMED_IDENTITIES[name][0](field, verify._li2p_values(field))
    sums, vanishing = [], verify._vanishing

    def spy(field_, value_of, terms, inputs, label=""):
        sums.append((value_of, list(terms)))
        return vanishing(field_, value_of, sums[-1][1], inputs, label)

    def canonical(terms):
        return [(field.element(w), x if isinstance(x, TruncatedSeries) else field.element(x)) for w, x in terms]

    monkeypatch.setattr(verify, "_vanishing", spy)
    value = getattr(dilog, value_name)
    valid = 0
    for coords in itertools.product(range(43), repeat=2):
        got = judge(*coords)
        expected, terms = reference(field, coords)
        assert got == expected, coords
        if terms is None:
            assert not sums, coords
        else:
            ((value_of, got_terms),) = sums
            assert canonical(got_terms) == canonical(terms), coords
            assert [value_of(x) for _, x in got_terms] == [value(x) for _, x in terms], coords
        sums.clear()
        valid += got is not None
    assert valid == 41 * 40


def _count_calls(monkeypatch, module, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, original=getattr(module, name)):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("name", ["four_term", "a2_pentagon_substitution"])
def test_a_check_evaluates_each_dilogarithm_argument_once(monkeypatch, name):
    """An exhaustive check at p = 43 calls li2p at most once per dual number and pounds1 at most once
    per residue; the memo belongs to the check, so a second check calls them again."""
    counts = _count_calls(monkeypatch, dilog, "li2p", "pounds1")
    assert verify.check_named_identity(name, 43).passed
    first = dict(counts)
    assert 0 < first["li2p"] + first["pounds1"] and first["li2p"] <= 43 ** 2 and first["pounds1"] <= 43
    assert verify.check_named_identity(name, 43).passed
    assert counts == {key: 2 * n for key, n in first.items()}


def test_the_tangent_guard_fills_the_memo_its_check_reads(monkeypatch):
    """Exhaustive clusterp[A2,p=7] evaluates no dual number twice: the tangent guard reads li2p through the
    check's memo, at the (p - 2) p flat numbers s + b t, and the judges find every value they read there."""
    args = []
    original = dilog.li2p
    monkeypatch.setattr(dilog, "li2p", lambda y: args.append(y.nums) or original(y))
    assert verify.check_cluster_charp("A2", 7).passed
    assert len(args) == len(set(args)) == 5 * 7


def test_a_mutant_installed_between_two_checks_is_seen_by_the_second(monkeypatch):
    """clusterp[B2,p=5] passes, then fails with the kill matrix's witness once li2p + 1 is installed in
    the same process: no li2p value outlives its check.  (A2 at p = 5 cannot show this: its five unit
    weights add to 0 mod 5, so li2p + 1 passes there.)"""
    install, ((check, name, witness, counts), *_) = KILL_MATRIX["li2p + 1"]
    assert check().passed
    install(monkeypatch)
    report = check()
    assert (report.name, report.verdict, report.witnesses[0]) == (name, "fail", witness)
    assert (report.valid, report.failed) == counts


def _record_memos(monkeypatch):
    """The list of every verify._Memo made from here to the end of the test, in order."""
    made = []

    class RecordingMemo(verify._Memo):
        def __init__(self, fn):
            super().__init__(fn)
            made.append(self)

    monkeypatch.setattr(verify, "_Memo", RecordingMemo)
    return made


def test_the_li2p_memo_stores_no_key_past_the_cap(monkeypatch):
    """With _MEMO_CAP at 8, exhaustive clusterp[A2,p=7] keeps 8 of its 35 keys in its li2p memo, each
    holding li2p of its key; values past the cap are computed again, and the check still passes."""
    memos = _record_memos(monkeypatch)
    monkeypatch.setattr(fields, "_MEMO_CAP", 8)
    args = []
    original = dilog.li2p
    monkeypatch.setattr(dilog, "li2p", lambda y: args.append(y.nums) or original(y))
    report = verify.check_cluster_charp("A2", 7)
    assert report.passed and report.params["mode"] == "exhaustive"
    (memo,) = memos
    assert len(memo) == 8 < len(set(args)) == 35 < len(args)
    for nums, value in memo.items():
        assert value == original(TruncatedSeries(GF(7), nums))


@pytest.mark.parametrize("check", [
    lambda: verify.check_cluster_charp("A2", 101, trials=20, seed=1),
    lambda: verify.check_named_identity("pentagon", 101, trials=20, seed=1),
], ids=["clusterp[A2,p=101]", "named[pentagon,p=101]"])
def test_a_sampled_check_calls_li2p_once_per_term_it_reads(monkeypatch, check):
    """A sampled char-p check builds no li2p memo and calls dilog.li2p, read through the module when the
    check starts, once per term its sums read; li2p + 1 installed between two checks fails the second."""
    memos = _record_memos(monkeypatch)
    read, vanishing = [], verify._vanishing

    def spy(field, value_of, terms, inputs, label=""):
        terms = list(terms)
        read.append(len(terms))
        return vanishing(field, value_of, terms, inputs, label)

    monkeypatch.setattr(verify, "_vanishing", spy)
    counts = _count_calls(monkeypatch, dilog, "li2p")
    report = check()
    assert report.passed and report.valid == 20
    assert memos == []
    assert counts["li2p"] == sum(read) >= 5 * 20
    install, _ = KILL_MATRIX["li2p + 1"]
    install(monkeypatch)
    failed = check()
    assert failed.verdict == "fail" and failed.failed == failed.valid == 20


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


def test_four_term_element_memo_is_filled_on_first_use(monkeypatch):
    """At p ~ 10^9 the per-check pounds1 memo holds only the arguments of attempted points; the sampled
    check makes no li2p memo, so the pounds1 memo is the only one."""
    memos = _record_memos(monkeypatch)
    report = verify.check_named_identity("four_term", 1000000007, trials=3)
    assert report.passed and report.attempted >= 3
    (pounds1_values,) = memos
    assert 0 < len(pounds1_values) <= 4 * report.attempted


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
            judge(*[random_series(field, precision, rng, 10) for _ in range(2)])
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


def test_li2p_lift_derives_an_rng_only_for_the_points_it_judges(monkeypatch):
    """The 2p points with s in {0, 1} draw nothing, so they seed no rng; every judged point keeps the rng
    of (seed, name, its index), and the report at p = 11, seed 1 keeps its bytes."""
    seeds = []
    original = verify._derive_rng
    monkeypatch.setattr(verify, "_derive_rng", lambda *key: seeds.append(key) or original(*key))
    report = verify.check_li2p_lift(11, seed=1)
    assert seeds == [(1, "li2p-lift[p=11]", index) for index in range(2 * 11, 11 * 11)]
    digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == "c6f98f29aa0ea62a1c1a5ddf3d25e6afa4db7477dc23ef32114ce383a8188250"


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


def _bumped_log(original):
    """A field's log_circ kernel with the t^2 coefficient off by one (normalize reduces it mod p over GF(p))."""
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
    # the char-p twin: the lift at precision p agrees with li2p zero-padded, and
    # a perturbed t^2 coefficient moves the value
    "li2p_via_lift + lift_2": (_wrap(dilog, "li2p_via_lift", lambda li: lambda lift: li(lift) + lift.coeff(2)), [
        (lambda: verify.check_li2p_lift(5), "li2p-lift[p=5]",
         {"inputs": {"lift": "2 + 0*t + 3*t^2 + 3*t^3 + 0*t^4"}, "value": "3 != 0"}, (15, 15)),
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
    "rational log t^2 + 1": (_wrap(RationalField, "log_circ", _bumped_log), [
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
    # the same defect in the GF(p) kernel, which the wedge ledgers and the lift sums call directly: the lemma's
    # zero test over GF(7) and the lift expression of li2p fail at every valid point
    "prime log t^2 + 1": (_wrap(PrimeField, "log_circ", _bumped_log), [
        (_lemma_wedge_gf7, "lemma[B2,fp7,N=6,exhaustive-constants]",
         {"inputs": {"alpha_1": "1 + 2*t + 0*t^2 + 5*t^3 + 1*t^4 + 6*t^5",
                     "alpha_2": "1 + 3*t + 3*t^2 + 3*t^3 + 3*t^4 + 0*t^5"},
          "value": "infinitesimal: (ell_1 ^ ell_2) evaluates to 2"}, (16, 16)),
        (lambda: verify.check_li2p_lift(5), "li2p-lift[p=5]",
         {"inputs": {"lift": "2 + 0*t + 3*t^2 + 3*t^3 + 0*t^4"}, "value": "3 != 0"}, (15, 15)),
        (lambda: verify.check_li2p_lift(7), "li2p-lift[p=7]",
         {"inputs": {"lift": "2 + 0*t + 5*t^2 + 6*t^3 + 6*t^4 + 0*t^5 + 2*t^6"}, "value": "4 != 0"}, (35, 35)),
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
         {"inputs": {"lift": "2 + 0*t + 0*t^2 + 0*t^3 + 0*t^4"}, "value": "lift 0 vs direct 1"}, (15, 15)),
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
         {"inputs": {"lift": "2 + 1*t + 0*t^2 + 0*t^3 + 0*t^4"}, "value": "lift 0 vs direct 3"}, None),
    ]),
    "pair sums lose antisymmetry": (_pair_sums_mutant(
        lambda rows: rows, lambda lo, ro, f, g: lo[f] * ro[g]), [
        (lambda: verify.check_lemma_wedge("A2", trials=3), "lemma[A2,q,N=6,random[3]]",
         _lemma_a2_witness("304774037/11089920"), None),
        (lambda: verify.check_welldef(3, 5, trials=3), "welldef[m=3,w=5]",
         {"inputs": {"lift": "-1 + 10/3*t + -1*t^2 + 0*t^3 + 0*t^4"}, "value": "lift 25325/2916 vs direct -119825/2916"},
         None),
        (lambda: verify.check_li2p_lift(5), "li2p-lift[p=5]",
         {"inputs": {"lift": "2 + 1*t + 0*t^2 + 0*t^3 + 0*t^4"}, "value": "lift 4 vs direct 3"}, None),
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
    _kill(monkeypatch, "li_via_lift * 2", "li_via_lift + lift_m", "li2p_via_lift + lift_2", "mutation drops y_k^b")


def test_all_ones_symmetrizer_is_caught(monkeypatch):
    _kill(monkeypatch, "all-ones symmetrizer")
    assert verify.check_cluster_char0("A2", 2, 3, trials=3).passed


def test_wrong_rational_log_is_caught(monkeypatch):
    _kill(monkeypatch, "rational log t^2 + 1")


def test_wrong_prime_log_is_caught(monkeypatch):
    _kill(monkeypatch, "prime log t^2 + 1")


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
    """The reference: the same dual judge over all of GF(p)^dimension, on a fresh report, each point
    (s_1, a_1, s_2, a_2, ...) handed over as the dual numbers s_i + a_i t made by the validating constructor."""
    fresh = verify.CheckReport(name=report.name, params=dict(report.params))
    return verify._exhaust(fresh, itertools.product(range(p), repeat=dimension), lambda *coords: judge(
        *(TruncatedSeries(GF(p), coords[i:i + 2]) for i in range(0, dimension, 2))))


@pytest.mark.parametrize("mutant", sorted(LI2P_MUTANTS))
def test_dual_checks_match_enumeration_of_every_point(monkeypatch, mutant):
    monkeypatch.setattr(dilog, "li2p", LI2P_MUTANTS[mutant](dilog.li2p))
    original = verify._check_coords
    seen = {}

    def capturing(family, subject, params, p, dimension, trials, seed, judge, li2p=None):
        def counted(*duals):
            seen["calls"] += 1
            return judge(*duals)

        seen.update(dimension=dimension, judge=judge, calls=0)
        return original(family, subject, params, p, dimension, trials, seed, counted, li2p)

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
    lambda *duals: None if any(y.nums[1] == 3 for y in duals) else {"ok": True, "inputs": {}, "value": "0"},
    lambda *duals: {"ok": not all(y.nums[1] for y in duals), "inputs": {"duals": ", ".join(map(str, duals))},
                    "value": "1"},
], ids=["rejects-at-tangent-3", "fails-off-the-basis"])
def test_a_tangent_dependent_judge_is_enumerated(judge):
    report = verify._check_coords("synthetic", "judge", {}, 7, 4, None, 0, judge, verify._li2p_values(GF(7)))
    reference = _enumerate_every_point(report, 7, 4, judge)
    assert report.to_dict() == reference.to_dict()
    assert reference.rejected or reference.failed


def _count_walks_and_mutations(monkeypatch):
    counts = {"walks": 0, "mutations": 0}
    walk, mutate = cluster.walk, cluster.YSeed.mutate

    def counted_walk(*args):
        counts["walks"] += 1
        return walk(*args)

    def counted_mutate(self, k):
        counts["mutations"] += 1
        return mutate(self, k)

    monkeypatch.setattr(cluster, "walk", counted_walk)
    monkeypatch.setattr(cluster.YSeed, "mutate", counted_mutate)
    return counts


def test_exhaustive_cluster_sum_walks_constant_points_only(monkeypatch):
    counts = _count_walks_and_mutations(monkeypatch)
    report = verify.check_cluster_charp("A2", 17)
    assert (report.attempted, report.valid, report.verdict) == (83521, 60690, "pass")
    # 17^2 constant points at the zero, two basis and one guard tangent, where
    # enumerating every point walks the schedule 17^4 times
    assert 0 < counts["walks"] <= 17 ** 2 * 4
    # each walk stops before the unread last of the schedule's 5 mutations
    assert 0 < counts["mutations"] <= 17 ** 2 * 4 * (5 - 1)


@pytest.mark.parametrize("name, mutations", [("A2", 400), ("B2", 452)])
def test_cluster_judge_mutates_only_up_to_the_first_non_flat_value(monkeypatch, name, mutations):
    counts = _count_walks_and_mutations(monkeypatch)
    assert verify.check_cluster_charp(name, 7).passed
    assert counts["mutations"] == mutations


# The A2 pattern with the opposite orientation: every step takes the b > 0
# branch of the mutation, where the factor is (1 + 1/y_k)^(-b).
OPPOSITE_A2 = {"name": "A2op", "B": [[0, 1], [-1, 0]], "sequence": [0, 1, 0, 1, 0], "nu": [1, 0]}
JUDGED_PATTERNS = ("A2", "B2", OPPOSITE_A2)


def _pattern(pattern):
    return cluster.builtin_pattern(pattern) if isinstance(pattern, str) else cluster.pattern_from_dict(pattern)


def test_opposite_a2_takes_the_positive_branch_at_every_step():
    matrix, schedule = _pattern(OPPOSITE_A2)
    path = cluster.matrix_path(matrix, schedule.directions)
    assert all(mat.entry(r, 1 - r) > 0 for mat, r in zip(path, schedule.directions))
    assert verify.check_periodicity_report((matrix, schedule), trials=20).passed


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("pattern", JUDGED_PATTERNS, ids=["A2", "B2", "A2op"])
def test_no_mutation_fails_after_a_flat_value(pattern, p):
    # the premise that lets the cluster judge mutate without catching
    # InvalidPointError: a flat -y_r makes y_r, 1 + y_r and 1 + 1/y_r units
    matrix, schedule = _pattern(pattern)
    field = GF(p)
    checked = 0
    for constants in itertools.product(range(p), repeat=matrix.n):
        seed = cluster.YSeed(matrix, tuple(TruncatedSeries(field, (c, 0)) for c in constants))
        for r in schedule.directions:
            if not (-seed.ys[r]).is_flat:
                break
            seed = seed.mutate(r)  # any InvalidPointError fails the test
            checked += 1
    assert checked > 0


def test_a_failing_mutation_after_a_flat_value_is_an_error(monkeypatch):
    def failing(self, k):
        raise cluster.InvalidPointError("forced", direction=k)

    monkeypatch.setattr(cluster.YSeed, "mutate", failing)
    with pytest.raises(cluster.InvalidPointError):
        verify.check_cluster_charp("A2", 5)


def _reference_cluster_judge(pattern, verdict):
    """The judge before the lazy walk: the whole schedule, then the flatness filter."""
    matrix, schedule, name = verify._resolve_pattern(pattern)
    if not cluster.matrix_returns(matrix, schedule):
        raise ValueError(f"pattern {name} is not nu-periodic at the matrix level")
    weights = schedule.resolved_theta(matrix)

    def judge(*point):
        try:
            trajectory = cluster.run_schedule(matrix, point, schedule)
        except cluster.InvalidPointError:
            return None
        terms = []
        for step in trajectory.steps:
            value = -step.value
            if not value.is_flat:
                return None
            terms.append((weights[step.direction], value))
        return verdict(terms, lambda: {f"alpha_{i + 1}": str(s) for i, s in enumerate(point)})

    return matrix, name, weights, judge


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("pattern", JUDGED_PATTERNS, ids=["A2", "B2", "A2op"])
def test_lazy_cluster_judge_matches_the_reference_at_every_point(pattern, p):
    field = GF(p)
    pattern = _pattern(pattern)

    def verdict(terms, inputs):
        return verify._vanishing(field, dilog.li2p, terms, inputs, "li2p sum ")

    *_, judge = verify._cluster_judge(pattern, verdict)
    *_, reference = _reference_cluster_judge(pattern, verdict)
    outcomes = set()
    for coords in itertools.product(range(p), repeat=4):
        point = (TruncatedSeries(field, coords[:2]), TruncatedSeries(field, coords[2:]))
        outcome = judge(*point)
        assert outcome == reference(*point), coords
        outcomes.add(None if outcome is None else outcome["ok"])
    assert outcomes == {None, True}


def test_lazy_cluster_judge_matches_the_reference_reports(monkeypatch):
    def reports():
        for pattern in map(_pattern, JUDGED_PATTERNS):
            yield verify.check_cluster_char0(pattern, 3, 4, trials=200)
            yield verify.check_lemma_wedge(pattern, precision=3, trials=200)
            yield verify.check_lemma_wedge(pattern, field=GF(11), precision=8, exhaustive_constants=True)

    lazy = [report.to_dict() for report in reports()]
    built = []
    monkeypatch.setattr(verify, "_cluster_judge", lambda *args: built.append(1) or _reference_cluster_judge(*args))
    assert lazy == [report.to_dict() for report in reports()]
    assert len(built) == len(lazy) == 9
    assert all(report["verdict"] == "pass" and report["valid"] for report in lazy)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_named_a2_five_term_and_the_a2_cluster_sum_judge_the_same_sums(p):
    """At (y1, y2), the named judge hands li2p the -y_r that the A2 trajectory judge reads at (-y1, -y2),
    in order and with unit weights, and each side rejects exactly the points the other rejects."""
    field = GF(p)
    named_args, cluster_terms = [], []

    def recording_li2p(y):
        named_args.append(y)
        return field.zero

    def recording_verdict(terms, inputs):
        cluster_terms.extend(terms)
        return {"ok": True}

    named = verify._a2_five_term_charp(field, recording_li2p)
    *_, trajectory = verify._cluster_judge("A2", recording_verdict)
    valid = 0
    for coords in itertools.product(range(p), repeat=4):
        y1, y2 = TruncatedSeries(field, coords[:2]), TruncatedSeries(field, coords[2:])
        named_args.clear()
        cluster_terms.clear()
        rejected = named(y1, y2) is None
        assert rejected == (trajectory(-y1, -y2) is None), coords
        assert named_args == [value for _, value in cluster_terms], coords
        assert all(weight == 1 for weight, _ in cluster_terms), coords
        valid += not rejected
    assert valid == (p - 2) * (p - 3) * p * p  # 150, 980, 8 712 and 18 590 points


def test_battery_sums_nest_only_where_a_named_identity_repeats_another_entry(monkeypatch):
    """Every sum each exhaustive clusterp and named battery entry at p <= 7 hands the witness builder, with
    the tangent shortcut off, as (function, weights mod p, least residues of the arguments in order): at one p,
    one entry's sums lie inside another's only where a named identity re-judges sums another entry judges."""
    monkeypatch.setattr(verify, "_li2p_is_tangent_linear", lambda p, li2p, dual: False)
    li2p_lookups, values_of_li2p = [], verify._li2p_values
    monkeypatch.setattr(verify, "_li2p_values", lambda *args: li2p_lookups.append(values_of_li2p(*args))
                        or li2p_lookups[-1])
    sums, vanishing = set(), verify._vanishing

    def recording(field, value_of, terms, inputs, label=""):
        terms = list(terms)
        p = field.characteristic
        function = "li2p" if any(value_of is lookup for lookup in li2p_lookups) else "pounds1"
        args = tuple(arg if function == "pounds1" else arg.nums for _, arg in terms)
        sums.add((function, tuple(field.element(w).value for w, _ in terms), args))
        assert all(type(arg) is int and 0 <= arg < p for arg in args) if function == "pounds1" else all(
            len(nums) == 2 and all(0 <= c < p for c in nums) for nums in args)
        return vanishing(field, value_of, terms, inputs, label)

    monkeypatch.setattr(verify, "_vanishing", recording)
    judged = {}
    for fn, kwargs in verify._battery(0):
        if fn in (verify.check_cluster_charp, verify.check_named_identity) and kwargs["p"] <= 7:
            sums.clear()
            report = fn(**kwargs)
            assert report.params["mode"] == "exhaustive" and len(sums) <= report.valid
            if report.valid:
                subject = kwargs.get("pattern") or kwargs["name"]
                judged[(f"{report.name.split('[')[0]}[{subject}]", kwargs["p"])] = frozenset(sums)
    assert len(judged) == 17  # all 22 entries but five at p = 3 with no valid point
    nested = {(inner, outer, p) for (inner, p), (outer, q) in itertools.permutations(judged, 2)
              if p == q and judged[(inner, p)] <= judged[(outer, q)]}
    assert nested == {("named[a2_pentagon_substitution]", "named[pentagon]", 5),
                      ("named[a2_pentagon_substitution]", "named[pentagon]", 7),
                      ("named[a2_five_term_charp]", "clusterp[A2]", 5),
                      ("clusterp[A2]", "named[a2_five_term_charp]", 5),
                      # over GF(3), z^2 - z + 1 = (z + 1)^2, so 1 - z = 1/z at every flat z = 2 + a t
                      ("named[elementary]", "named[involution]", 3),
                      ("named[involution]", "named[elementary]", 3)}


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
