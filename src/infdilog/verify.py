"""Exact pass/fail checkers for the dilogarithm, cluster, and wedge identities.

Every check asserts exact equality with zero; there are no tolerances.  All
checks share one driver: a judge maps a point to None when a validity filter (a
failed inversion, a non-flat value) rejects it, or else to a witness dict, and
`_tally` keeps the counts.  Every identity stated as a weighted sum of one
dilogarithm that must vanish is judged by the one witness builder, `_vanishing`,
from its (weight, argument) terms, as a raw sum reduced once; a char-p sum reads
li2p (`_li2p_values`) or pounds1, and the pentagon substitution its units, from
memos that live for one check, so each distinct argument is evaluated once per
check.  The two cluster sums and the wedge lemma share one trajectory judge,
`_cluster_judge`: it walks the schedule lazily, rejects a point at its first
non-flat recorded value before mutating past it, and hands the weighted values
to the family's verdict.  A point source is either an exhaustive enumeration
(`_exhaust`) or seeded sampling (`_resample`).  `_sampled` opens every sampled
report whose params are the family's own plus trials, height and seed, the
lemma's too; only the coordinate checks (params p and mode) and periodicity
(which can fail before a draw) open theirs by hand.  Trial k of a check, or
point k of an enumeration through `_seeded_points`, draws from random.Random
seeded with the string "master seed:check id:k", so reports are deterministic
and independent of execution order; rejected samples are resampled, up to
RESAMPLE_FACTOR attempts per requested trial, and a sampled check that cannot
gather enough valid samples reports that instead of passing.  Prime-field point
spaces are enumerated exhaustively whenever p^dimension stays within
EXHAUSTIVE_LIMIT and a trial count is not forced; above the limit a trial count
is required.  A named identity is a judge factory, make(field, li2p) ->
judge(coords), built once per check with the check's li2p.  An exhaustive
cluster-p or named check passes when no valid point fails, even if no point
was valid: at p = 3 the A2 and B2 cluster sums and four of the named
identities pass that way, with valid = 0 in their reports (the battery leaves
out the pentagon at p = 3).

An exhaustive check over n dual numbers s_i + a_i t (cluster-p, and the named
elementary, involution, pentagon and a2_five_term_charp) first tries to certify
a pass from its p^n constant points.  li2p(s + a t) = (a / (s(1 - s)))^p
pounds1(s) is linear in a over GF(p), and precision-2 arithmetic is k[t]/(t^2),
so each weighted sum is linear in the tangent (a_1, ..., a_n) and validity
reads only constant terms.  Once per check, li2p(s + b t) = b li2p(s + t) is
checked at every flat s and every b; then each constant point is judged at the
zero tangent, the n basis tangents and a guard tangent from its per-point rng,
and counts as p^n points when all n + 2 are rejected or all are ok.  Anything
else redoes the check by enumerating every point, so only passes are certified
this way, every failing report is the enumeration's, and the counts always
cover every point.
"""

from __future__ import annotations

import itertools
import json
import random

from . import bloch, cluster, dilog
from .fields import GF, QQ, Field, FieldElement, _Memo
from .series import TruncatedSeries, _series, random_series

__all__ = [
    "CheckReport",
    "EXHAUSTIVE_LIMIT",
    "NAMED_IDENTITIES",
    "RESAMPLE_FACTOR",
    "SuiteReport",
    "check_cluster_char0",
    "check_cluster_charp",
    "check_lemma_wedge",
    "check_li2p_lift",
    "check_mutation_involution",
    "check_named_identity",
    "check_oracle_agreement",
    "check_pentagon",
    "check_periodicity_report",
    "check_scale_weight",
    "check_theta_invariance",
    "check_vanish_constants",
    "check_welldef",
    "run_suite",
]

RESAMPLE_FACTOR = 100
EXHAUSTIVE_LIMIT = 10**6

PENTAGON_PARAMS = ((2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (4, 7))

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INSUFFICIENT = "insufficient-valid-samples"


def _derive_rng(master_seed: int, check_id: str, trial: int) -> random.Random:
    return random.Random(f"{master_seed}:{check_id}:{trial}")


def _copied(value):
    """A copy of a JSON-shaped value: dicts and lists are rebuilt, immutable leaves shared."""
    if isinstance(value, dict):
        return {key: _copied(item) for key, item in value.items()}
    return [_copied(item) for item in value] if isinstance(value, list) else value


class CheckReport:
    """Counts and witnesses for one identity check."""

    MAX_WITNESSES = 5

    def __init__(self, name: str, params: dict, attempted: int = 0, valid: int = 0,
                 rejected: int = 0, failed: int = 0, witnesses: list | None = None,
                 verdict: str = VERDICT_PASS) -> None:
        self.name, self.params, self.attempted, self.valid = name, params, attempted, valid
        self.rejected, self.failed = rejected, failed
        self.witnesses = [] if witnesses is None else witnesses
        self.verdict = verdict

    @property
    def passed(self) -> bool:
        return self.verdict == VERDICT_PASS

    def record_failure(self, witness: dict, count: int = 1) -> None:
        self.failed += count
        if len(self.witnesses) < self.MAX_WITNESSES:
            self.witnesses.append(witness)

    def finish(self, min_valid: int) -> "CheckReport":
        if self.failed:
            self.verdict = VERDICT_FAIL
        elif self.valid < min_valid:
            self.verdict = VERDICT_INSUFFICIENT
        else:
            self.verdict = VERDICT_PASS
        return self

    def to_dict(self) -> dict:
        return {"name": self.name, "params": _copied(self.params), "attempted": self.attempted,
                "valid": self.valid, "rejected": self.rejected, "failed": self.failed,
                "witnesses": _copied(self.witnesses), "verdict": self.verdict}


# -- the check driver ------------------------------------------------------------


def _tally(report: CheckReport, outcome: dict | None, count: int = 1) -> bool:
    """Count `count` attempted points that share one outcome; return whether they were valid.

    outcome is None for a rejected point, otherwise a witness dict with an
    "ok" key.  A valid point that is not ok is a failure.
    """
    report.attempted += count
    if outcome is None:
        report.rejected += count
        return False
    report.valid += count
    if not outcome.pop("ok"):
        report.record_failure(outcome, count)
    return True


def _resample(report: CheckReport, trials: int, seed: int, evaluate) -> CheckReport:
    """Judge `trials` valid samples; evaluate(rng) draws one point and judges it.

    Trial k draws from the rng of (seed, report.name, k) for at most
    RESAMPLE_FACTOR attempts; the first trial to run out of attempts ends the
    check, which then reports too few valid samples.  A trial count below 1 is
    refused with ValueError, so no sampled verdict rests on zero trials.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    for trial in range(trials):
        rng = _derive_rng(seed, report.name, trial)
        if not any(_tally(report, evaluate(rng)) for _ in range(RESAMPLE_FACTOR)):
            break
    return report.finish(min_valid=trials)


def _sampled(name: str, params: dict, trials: int, height: int, seed: int, evaluate) -> CheckReport:
    """Open a seeded-sampling report, adding trials, height and seed to params; judge it by `_resample`."""
    report = CheckReport(name=name, params={**params, "trials": trials, "height": height, "seed": seed})
    return _resample(report, trials, seed, evaluate)


def _seeded_points(report: CheckReport, p: int, k: int, seed: int):
    """Each point of GF(p)^k in order, with the rng of (seed, report.name, its index)."""
    for index, point in enumerate(itertools.product(range(p), repeat=k)):
        yield point, _derive_rng(seed, report.name, index)


def _exhaust(report: CheckReport, points, judge, min_valid: int = 0) -> CheckReport:
    """Judge every point of an enumerated point space."""
    for point in points:
        _tally(report, judge(point))
    return report.finish(min_valid=min_valid)


def _li2p_is_tangent_linear(field: Field) -> bool:
    """Whether li2p(s + b t) = b li2p(s + t) for every flat s and every b in GF(p).

    dilog.li2p is a * W_p(s) by construction: this guards against a replaced li2p only."""
    p = field.characteristic
    for s in range(2, p):
        unit = dilog.li2p(TruncatedSeries(field, (s, 1))).value
        if any(dilog.li2p(TruncatedSeries(field, (s, b))).value != b * unit % p for b in range(p) if b != 1):
            return False
    return True


def _exhaust_by_tangent_linearity(report: CheckReport, p: int, n: int, seed: int,
                                  judge) -> CheckReport | None:
    """Certify a pass over GF(p)^(2n) from its p^n constant points, or return None.

    judge takes the coordinates (s_1, a_1, ..., s_n, a_n) of n dual numbers;
    the guard tangent of constant point k comes from the rng of (seed,
    report.name, k).  None (li2p is not tangent-linear, or some constant
    point's n + 2 outcomes are mixed or not all ok) leaves the verdict to
    enumerating every point.
    """
    if not _li2p_is_tangent_linear(GF(p)):
        return None
    zero = (0,) * n
    tangents = [zero] + [zero[:i] + (1,) + zero[i + 1:] for i in range(n)]
    for constants, rng in _seeded_points(report, p, n, seed):
        guard = tuple(rng.randrange(p) for _ in range(n))
        outcomes = [judge(tuple(itertools.chain.from_iterable(zip(constants, tangent))))
                    for tangent in (*tangents, guard)]
        if all(outcome is None for outcome in outcomes):
            _tally(report, None, p ** n)
        elif all(outcome is not None and outcome["ok"] for outcome in outcomes):
            _tally(report, outcomes[0], p ** n)
        else:
            return None
    return report.finish(min_valid=0)


def _require_enumerable(p: int, dimension: int, remedy: str) -> None:
    """Refuse, with ValueError, to enumerate GF(p)^dimension above EXHAUSTIVE_LIMIT."""
    if p ** dimension > EXHAUSTIVE_LIMIT:
        raise ValueError(f"GF({p})^{dimension} has {p ** dimension} points, more than the"
                         f" exhaustive limit {EXHAUSTIVE_LIMIT}; {remedy}")


def _check_coords(family: str, subject: str, params: dict, p: int, dimension: int,
                  trials: int | None, seed: int, judge, dual: bool = False) -> CheckReport:
    """Judge points of GF(p)^dimension, given to judge as tuples of least residues.

    The whole space is enumerated when it stays within EXHAUSTIVE_LIMIT and no
    trial count is forced; otherwise `trials` valid points are sampled.  A space
    above the limit with no trial count is refused with ValueError.  dual says
    the coordinates are dimension / 2 dual numbers (s_1, a_1, s_2, a_2, ...)
    judged by a weighted li2p sum at precision 2: an exhaustive pass is then
    first sought from the constant points by `_exhaust_by_tangent_linearity`,
    and any other outcome comes from enumerating every point on a fresh report.
    """
    exhaustive = trials is None
    if exhaustive:
        _require_enumerable(p, dimension, "give a trial count")
    mode = "exhaustive" if exhaustive else f"random[{trials}]"

    def new_report() -> CheckReport:
        return CheckReport(name=f"{family}[{subject},p={p},{mode}]",
                           params={**params, "p": p, "mode": mode, "seed": seed})

    if not exhaustive:
        return _resample(new_report(), trials, seed,
                         lambda rng: judge(tuple(rng.randrange(p) for _ in range(dimension))))
    if dual:
        report = _exhaust_by_tangent_linearity(new_report(), p, dimension // 2, seed, judge)
        if report is not None:
            return report
    return _exhaust(new_report(), itertools.product(range(p), repeat=dimension), judge)


def _resolve_pattern(pattern):
    """(matrix, schedule, name) of a built-in name or a (matrix, schedule) pair; builtin_pattern
    validated a built-in as it made it, so only a hand-built pair is validated here."""
    if isinstance(pattern, str):
        matrix, schedule = cluster.builtin_pattern(pattern)
    else:
        matrix, schedule = pattern
        schedule.validate(matrix)
    return matrix, schedule, schedule.name


def _vanishing(field: Field, value_of, terms, inputs, label: str = "") -> dict:
    """The witness that sum weight * value_of(arg) over (weight, arg) terms is zero.

    A raw sum of weight * value, reduced once; a non-int weight goes through
    field.element and every value through field.scalar, so a weight or a value
    of another field raises FieldMismatchError.  A zero sum gives {"ok": True};
    only a failure calls inputs() and renders the witness text."""
    total = 0
    for weight, arg in terms:
        weight = weight if type(weight) is int else field.element(weight).value
        total += weight * field.scalar(value_of(arg))
    total = field.reduce(total)
    return {"ok": False, "inputs": inputs(), "value": f"{label}{total}"} if total else {"ok": True}


def _li2p_values(field: Field):
    """li2p of a GF(p) dual number, from a memo that lives for one check keyed by its least residues; a miss
    rebuilds the number from them by the trusted constructor and calls dilog.li2p through the module."""
    memo = _Memo(lambda nums: dilog.li2p(_series(field, (nums, 1))))
    return lambda y: memo[y.nums]


def _cluster_judge(pattern, verdict):
    """(matrix, name, weights, judge) of a pattern whose matrix returns to nu of itself.

    judge(point) walks the schedule from point, reading each y_r before its mutation: None at the
    first -y_r that is not flat (y_r or 1 + y_r is not a unit), else verdict(terms, inputs) of the
    (theta_r, -y_r) pairs, where inputs() renders the point.  A flat -y_r makes y_r, 1 + y_r and
    1 + 1/y_r units, so no mutation can fail; the unread last one never runs."""
    matrix, schedule, name = _resolve_pattern(pattern)
    if not cluster.matrix_returns(matrix, schedule):
        raise ValueError(f"pattern {name} is not nu-periodic at the matrix level")
    weights = schedule.resolved_theta(matrix)

    def judge(point):
        terms = []
        for r, seed in zip(schedule.directions, cluster.walk(matrix, point, schedule.directions)):
            value = -seed.ys[r]
            if not value.is_flat:
                return None
            terms.append((weights[r], value))
        return verdict(terms, lambda: {f"alpha_{i + 1}": str(s) for i, s in enumerate(point)})

    return matrix, name, weights, judge


def _field_tag(field: Field) -> str:
    """q, or fp{p}: a field as report names and params spell it."""
    return f"fp{field.characteristic}" if field.characteristic else "q"


def _sample_flat(field: Field, precision: int, rng: random.Random, height: int) -> TruncatedSeries | None:
    s = random_series(field, precision, rng, height)
    return s if s.is_flat else None


# -- dilogarithm-level checks -------------------------------------------------


def check_oracle_agreement(m: int, w: int, trials: int = 200, height: int = 10, seed: int = 0) -> CheckReport:
    """li_direct against the displayed closed form, over random flat points."""
    dilog.validate_modulus_weight(m, w)
    if (m, w) not in dilog.CLOSED_FORM_PARAMS:
        raise ValueError(f"no closed-form oracle for (m, w) = ({m}, {w})")

    def evaluate(rng: random.Random):
        a = _sample_flat(QQ, m, rng, height)
        if a is None:
            return None
        direct = dilog.li_direct(m, w, a)
        closed = dilog.li_closed_form(m, w, a.coeff(0), *a.coeffs[1:])
        if direct == closed:
            return {"ok": True}
        return {"ok": False, "inputs": {"a": str(a)}, "value": f"direct {direct} vs closed {closed}"}

    return _sampled(f"oracle-agreement[m={m},w={w}]", {"m": m, "w": w}, trials, height, seed, evaluate)


def check_pentagon(m: int, w: int, trials: int = 100, height: int = 10, seed: int = 0) -> CheckReport:
    """The five-term relation for li_{m,w} over the rationals; its char-p form is the named `pentagon`.

    Pairs (a, b) are valid when a(1-a)b(1-b)(b-a) is a unit, which makes every
    pentagon argument flat.
    """
    dilog.validate_modulus_weight(m, w)

    def evaluate(rng: random.Random):
        a = random_series(QQ, m, rng, height)
        b = random_series(QQ, m, rng, height)
        if not (a.is_flat and b.is_flat) or a.constant_term() == b.constant_term():
            return None
        return _vanishing(QQ, lambda arg: dilog.li_direct(m, w, arg), bloch.pentagon_terms(a, b),
                          lambda: {"a": str(a), "b": str(b)})

    return _sampled(f"pentagon[q,m={m},w={w}]", {"field": "q", "m": m, "w": w}, trials, height, seed, evaluate)


def check_welldef(
    m: int,
    w: int,
    trials: int = 100,
    perturbations: int = 10,
    height: int = 10,
    seed: int = 0,
) -> CheckReport:
    """Lift independence of the differential formula, and its direct agreement.

    Per point, li_via_lift of the zero-padded lift equals li_direct, and stays
    constant under random perturbation of the lift coefficients in degrees
    [m, w).
    """
    dilog.validate_modulus_weight(m, w)
    if perturbations < 0:
        raise ValueError(f"perturbations must be at least 0, got {perturbations}")

    def evaluate(rng: random.Random):
        base = _sample_flat(QQ, m, rng, height)
        if base is None:
            return None
        lift = base.with_precision(w)
        reference = dilog.li_via_lift(m, w, lift)
        if reference != dilog.li_direct(m, w, base):
            return {"ok": False, "inputs": {"lift": str(lift)},
                    "value": f"lift {reference} vs direct {dilog.li_direct(m, w, base)}"}
        for _ in range(perturbations):
            tail = tuple(QQ.random_element(rng, height).value for _ in range(w - m))
            perturbed = TruncatedSeries(QQ, base.coeffs + tail)
            got = dilog.li_via_lift(m, w, perturbed)
            if got != reference:
                return {"ok": False, "inputs": {"lift": str(perturbed)},
                        "value": f"{got} != {reference}"}
        return {"ok": True}

    return _sampled(f"welldef[m={m},w={w}]", {"m": m, "w": w, "perturbations": perturbations},
                    trials, height, seed, evaluate)


def check_scale_weight(m: int, w: int, trials: int = 100, height: int = 10, seed: int = 0) -> CheckReport:
    """Homogeneity under the scaling action: li(lam x a) = lam^w li(a)."""
    dilog.validate_modulus_weight(m, w)

    def evaluate(rng: random.Random):
        a = _sample_flat(QQ, m, rng, height)
        lam = QQ.random_element(rng, height)
        if a is None or not lam:
            return None
        lhs = dilog.li_direct(m, w, a.scale(lam))
        rhs = lam ** w * dilog.li_direct(m, w, a)
        if lhs == rhs:
            return {"ok": True}
        return {"ok": False, "inputs": {"a": str(a), "lam": str(lam)}, "value": f"{lhs} vs {rhs}"}

    return _sampled(f"scale-weight[m={m},w={w}]", {"m": m, "w": w}, trials, height, seed, evaluate)


def check_vanish_constants(m: int, w: int, trials: int = 100, height: int = 10, seed: int = 0) -> CheckReport:
    """li_{m,w} vanishes on constant flat rationals."""
    dilog.validate_modulus_weight(m, w)

    def evaluate(rng: random.Random):
        c = QQ.random_element(rng, height)
        if not c or c == QQ.one:
            return None
        return _vanishing(QQ, lambda a: dilog.li_direct(m, w, a),
                          [(1, TruncatedSeries.constant(QQ, c, m))], lambda: {"c": str(c)})

    return _sampled(f"vanish-constants[m={m},w={w}]", {"m": m, "w": w}, trials, height, seed, evaluate)


def check_li2p_lift(p: int, perturbations: int = 3, seed: int = 0) -> CheckReport:
    """The char-p differential expression equals li2p, exhaustively over duals.

    Each dual number is also lifted with random tail coefficients to witness
    lift independence of the expression.
    """
    if perturbations < 0:
        raise ValueError(f"perturbations must be at least 0, got {perturbations}")
    _require_enumerable(p, 2, "the lift check has no sampled mode")
    field = GF(p)
    report = CheckReport(
        name=f"li2p-lift[p={p}]",
        params={"p": p, "perturbations": perturbations, "seed": seed, "mode": "exhaustive"},
    )

    def judge(item):
        (s, a), rng = item
        if s in (0, 1):
            return None
        dual = TruncatedSeries(field, (s, a))
        expected = dilog.li2p(dual)
        lifts = [dual.with_precision(p)]
        for _ in range(perturbations):
            lifts.append(TruncatedSeries(field, (s, a, *(rng.randrange(p) for _ in range(2, p)))))
        for lift in lifts:
            got = dilog.li2p_via_lift(lift)
            if got != expected:
                return {"ok": False, "inputs": {"lift": str(lift)}, "value": f"{got} != {expected}"}
        return {"ok": True}

    return _exhaust(report, _seeded_points(report, p, 2, seed), judge, min_valid=1)


# -- cluster identity checks --------------------------------------------------


def check_cluster_char0(
    pattern,
    m: int,
    w: int,
    trials: int = 100,
    height: int = 10,
    seed: int = 0,
) -> CheckReport:
    """The weighted cluster sum of li_{m,w} along a periodic mutation sequence."""
    dilog.validate_modulus_weight(m, w)
    matrix, name, weights, judge = _cluster_judge(pattern, lambda terms, inputs: _vanishing(
        QQ, lambda y: dilog.li_direct(m, w, y), terms, inputs))
    return _sampled(f"cluster0[{name},m={m},w={w}]", {"pattern": name, "m": m, "w": w, "theta": list(weights)},
                    trials, height, seed,
                    lambda rng: judge(tuple(random_series(QQ, m, rng, height) for _ in range(matrix.n))))


def check_cluster_charp(
    pattern,
    p: int,
    trials: int | None = None,
    seed: int = 0,
) -> CheckReport:
    """The weighted cluster sum of li2p over GF(p) dual numbers vanishes.

    Enumerates GF(p)^(2n) exhaustively when that stays within
    EXHAUSTIVE_LIMIT and no trial count is forced, certifying a pass by
    tangent linearity where it can; otherwise samples, and a trial count is
    then required.
    """
    field = GF(p)
    li2p = _li2p_values(field)
    matrix, name, weights, judge = _cluster_judge(pattern, lambda terms, inputs: _vanishing(
        field, li2p, terms, inputs, "li2p sum "))
    return _check_coords("clusterp", name, {"pattern": name, "theta": list(weights)},
                         p, 2 * matrix.n, trials, seed, lambda coords: judge(
                             tuple(TruncatedSeries(field, coords[2 * i: 2 * i + 2])
                                   for i in range(matrix.n))), dual=True)


# -- named char-p identities --------------------------------------------------


def _four_term(field, _):
    p = field.characteristic
    pounds1 = _Memo(lambda x: dilog.pounds1(FieldElement(field, x)))  # per check, on first use: p may be ~10^9

    def judge(coords):
        r, s = coords
        if r in (0, 1) or s in (0, 1) or r == s:
            return None
        # the weights r^p and (s - 1)^p are r and s - 1 in GF(p)
        terms = [(1, r), (-1, s), (r, s * field.inv(r)), (s - 1, (1 - r) * field.inv((1 - s) % p))]
        return _vanishing(field, pounds1.__getitem__, [(w, x % p) for w, x in terms],
                          lambda: {"r": str(r), "s": str(s)})
    return judge


def _elementary(field, li2p):
    def judge(coords):
        if coords[0] in (0, 1):
            return None
        z = TruncatedSeries(field, coords)
        return _vanishing(field, li2p, [(1, 1 - z), (1, z)], lambda: {"z": str(z)})
    return judge


def _involution(field, li2p):
    def judge(coords):
        if coords[0] in (0, 1):
            return None
        y = TruncatedSeries(field, coords)
        return _vanishing(field, li2p, [(1, y.invert()), (1, y)], lambda: {"y": str(y)})
    return judge


def _pentagon(field, li2p):
    def judge(coords):
        if coords[0] in (0, 1) or coords[2] in (0, 1) or coords[0] == coords[2]:
            return None
        a, b = TruncatedSeries(field, coords[:2]), TruncatedSeries(field, coords[2:])
        return _vanishing(field, li2p, bloch.pentagon_terms(a, b), lambda: {"a": str(a), "b": str(b)})
    return judge


def _a2_five_term_charp(field, li2p):
    def judge(coords):
        if coords[0] == 0 or coords[2] == 0:
            return None
        y1, y2 = TruncatedSeries(field, coords[:2]), TruncatedSeries(field, coords[2:])
        args = [y1, y2 * (1 - y1), y1.invert() * (1 - y2 + y1 * y2),
                y1.invert() * (1 - y2.invert()), y2.invert()]
        if not all(arg.is_flat for arg in args):
            return None
        return _vanishing(field, li2p, [(1, arg) for arg in args], lambda: {"y1": str(y1), "y2": str(y2)})
    return judge


def _a2_pentagon_substitution(field, li2p):
    def units(c):
        """(x, 1/x, 1 - x, 1/(1 - x)) at x = c + c(1 - c)t."""
        x = TruncatedSeries(field, (c, field.reduce(c * (1 - c))))
        return x, x.invert(), 1 - x, (1 - x).invert()
    memo = _Memo(units)

    def judge(coords):
        r, s = coords
        if r in (0, 1) or s in (0, 1) or r == s:
            return None
        (x, inv_x, one_minus_x, _), (y, _, _, inv_one_minus_y) = memo[r], memo[s]
        return _vanishing(field, li2p, bloch._pentagon_terms(x, inv_x, one_minus_x, y, inv_one_minus_y),
                          lambda: {"r": str(r), "s": str(s)})
    return judge


# name: (make, dimension, dual); make(field, li2p) builds the judge once per check, li2p being the check's memo
# of li2p values (four_term keeps its own of pounds1); dual: the coordinates are dual numbers s_i, a_i
NAMED_IDENTITIES = {
    "four_term": (_four_term, 2, False),
    "elementary": (_elementary, 2, True),
    "involution": (_involution, 2, True),
    "pentagon": (_pentagon, 4, True),
    "a2_five_term_charp": (_a2_five_term_charp, 4, True),
    "a2_pentagon_substitution": (_a2_pentagon_substitution, 2, False),
}


def check_named_identity(name: str, p: int, trials: int | None = None, seed: int = 0) -> CheckReport:
    """One of the named char-p functional equations, exhaustive when affordable; its judge is built per check."""
    if name not in NAMED_IDENTITIES:
        known = ", ".join(sorted(NAMED_IDENTITIES))
        raise ValueError(f"unknown identity {name!r}; known: {known}")
    make, dimension, dual = NAMED_IDENTITIES[name]
    judge = make(GF(p), _li2p_values(GF(p)))
    return _check_coords("named", name, {"identity": name}, p, dimension, trials, seed, judge, dual)


# -- wedge lemma ---------------------------------------------------------------


def check_lemma_wedge(
    pattern,
    field: Field = QQ,
    precision: int = 6,
    trials: int = 25,
    height: int = 10,
    seed: int = 0,
    exhaustive_constants: bool = False,
) -> CheckReport:
    """The weighted wedge sum along a trajectory rationally zero-tests to zero.

    The ledger is sum theta_r * (beta ^ (1 - beta)) over the judged beta = -y.
    It differs from sum theta_r * (y ^ (1 + y)) by the 2-torsion theta_r *
    ((-1) ^ (1 + y)), which the zero test does not see: log_circ(-y) =
    log_circ(y), and exponent vectors drop signs.  The zero test reads one
    antisymmetric form at every pair of coordinates, the logs' coefficients
    and over QQ the constants' exponents over a coprime base, so it decides
    every point.  Over a prime field, exhaustive_constants enumerates all
    constant terms and randomizes the higher coefficients; it needs at least
    one valid point to pass, and its params omit the unused trials and height.
    Refused up front: p^n constant points above EXHAUSTIVE_LIMIT, N > p over
    GF(p), which the zero test cannot evaluate, and N < 3 over GF(p), where
    the zero test would test nothing: no pair i < j < N, the rest vanishing
    over GF(p).
    """
    p = field.characteristic
    if p and not 3 <= precision <= p:
        raise ValueError(f"precision {precision} over GF({p}) must be between 3 and p:"
                         " the zero test needs a pair i < j < N and N <= p")
    if exhaustive_constants and not p:
        raise ValueError("exhaustive constants require a prime field")

    def verdict(terms, inputs):
        ledger = bloch.WedgeLedger([(weight, beta, 1 - beta) for weight, beta in terms])
        result = bloch.zero_test_rational(ledger)
        if result.is_zero:
            return {"ok": True}
        return {"ok": False, "inputs": inputs(), "value": f"{result.failing_component}: {result.detail}"}

    matrix, pattern_name, _, judge = _cluster_judge(pattern, verdict)
    field_tag = _field_tag(field)
    mode = "exhaustive-constants" if exhaustive_constants else f"random[{trials}]"
    name = f"lemma[{pattern_name},{field_tag},N={precision},{mode}]"
    params = {"pattern": pattern_name, "field": field_tag, "precision": precision, "mode": mode}
    if not exhaustive_constants:
        return _sampled(name, params, trials, height, seed, lambda rng: judge(
            tuple(random_series(field, precision, rng, height) for _ in range(matrix.n))))

    _require_enumerable(p, matrix.n, "sample the constants instead")
    report = CheckReport(name, {**params, "seed": seed})

    def judge_constants(item):
        constants, rng = item
        return judge(tuple(TruncatedSeries(field, (c, *(rng.randrange(p) for _ in range(precision - 1))))
                           for c in constants))

    return _exhaust(report, _seeded_points(report, p, matrix.n, seed), judge_constants, min_valid=1)


# -- structural cluster checks --------------------------------------------------


def check_theta_invariance(pattern) -> CheckReport:
    """The matrix's skew-symmetrizer theta skew-symmetrizes every matrix the schedule mutates to."""
    matrix, schedule, name = _resolve_pattern(pattern)
    theta = cluster.skew_symmetrizer(matrix)
    report = CheckReport(name=f"theta-invariance[{name}]", params={"pattern": name, "theta": list(theta)})

    def judge(item):
        step, mat = item
        if cluster.skew_symmetrizes(theta, mat):
            return {"ok": True}
        return {"ok": False, "inputs": {"step": str(step)},
                "value": f"theta does not skew-symmetrize {[list(row) for row in mat.rows]}"}

    path = cluster.matrix_path(matrix, schedule.directions)[1:]
    return _exhaust(report, enumerate(path), judge, min_valid=1)


def check_mutation_involution(
    pattern,
    trials: int = 1000,
    height: int = 10,
    seed: int = 0,
) -> CheckReport:
    """Mutating twice in the same direction restores the seed exactly, at precision 2."""
    matrix, schedule, name = _resolve_pattern(pattern)

    def evaluate(rng: random.Random):
        point = tuple(random_series(QQ, 2, rng, height) for _ in range(matrix.n))
        direction = rng.randrange(matrix.n)
        try:
            back = cluster.YSeed(matrix, point).mutate(direction).mutate(direction)
        except cluster.InvalidPointError:
            return None
        if back.ys == point and back.matrix == matrix:
            return {"ok": True}
        return {"ok": False, "inputs": {"direction": str(direction + 1),
                                        **{f"y_{i + 1}": str(s) for i, s in enumerate(point)}},
                "value": "seed not restored"}

    return _sampled(f"involution[{name}]", {"pattern": name, "precision": 2}, trials, height, seed, evaluate)


def check_periodicity_report(
    pattern,
    trials: int = 50,
    height: int = 10,
    seed: int = 0,
    field: Field = QQ,
    precision: int = 2,
) -> CheckReport:
    """Sampled nu-periodicity: the exact matrix return, then y-agreement at `trials` valid points.

    A matrix that does not return is the one failure, with no point drawn;
    otherwise every point whose y-values disagree is a failure, and a pattern
    with too few valid points is insufficient.
    """
    matrix, schedule, name = _resolve_pattern(pattern)
    report = CheckReport(
        name=f"periodicity[{name}]",
        params={"pattern": name, "field": _field_tag(field), "precision": precision,
                "nu": list(schedule.nu), "trials": trials, "height": height, "seed": seed},
    )
    if not cluster.matrix_returns(matrix, schedule):
        report.record_failure({"inputs": {}, "value": "matrix does not return to nu of itself"})
        return report.finish(min_valid=trials)

    def evaluate(rng: random.Random):
        point = tuple(random_series(field, precision, rng, height) for _ in range(matrix.n))
        try:
            if cluster.check_periodicity(matrix, schedule, point):
                return {"ok": True}
        except cluster.InvalidPointError:
            return None
        return {"ok": False, "inputs": {f"alpha_{i + 1}": str(s) for i, s in enumerate(point)},
                "value": "y-values disagree"}

    return _resample(report, trials, seed, evaluate)


# -- suite ----------------------------------------------------------------------


class SuiteReport:
    def __init__(self, config: dict, checks: list) -> None:
        self.config = config
        self.checks = checks

    @property
    def all_pass(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "checks": [check.to_dict() for check in self.checks],
            "summary": {
                "total": len(self.checks),
                "passed": sum(1 for c in self.checks if c.passed),
                "all_pass": self.all_pass,
            },
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n").encode()

    def to_text(self) -> str:
        lines = []
        for check in self.checks:
            status = "PASS" if check.passed else check.verdict.upper()
            lines.append(
                f"[{status}] {check.name}: valid={check.valid}"
                f" rejected={check.rejected} failed={check.failed}"
            )
            for witness in check.witnesses:
                lines.append(f"    witness: {witness}")
        passed = sum(1 for c in self.checks if c.passed)
        lines.append(f"{passed}/{len(self.checks)} checks passed")
        return "\n".join(lines)


def _battery(seed: int) -> list:
    """The full acceptance battery, in a fixed order."""
    entries: list[tuple] = []
    for m, w in dilog.CLOSED_FORM_PARAMS:
        entries.append((check_oracle_agreement, {"m": m, "w": w, "trials": 200, "seed": seed}))
    for m, w in PENTAGON_PARAMS:
        entries.append((check_pentagon, {"m": m, "w": w, "trials": 100, "seed": seed}))
    entries.append((check_cluster_char0, {"pattern": "A1", "m": 2, "w": 3, "trials": 100, "seed": seed}))
    for pattern in ("A2", "B2"):
        for m, w in ((2, 3), (3, 4), (3, 5)):
            entries.append((check_cluster_char0,
                            {"pattern": pattern, "m": m, "w": w, "trials": 100, "seed": seed}))
    for pattern in ("A2", "B2"):
        for p in (3, 5, 7, 11, 13):
            entries.append((check_cluster_charp, {"pattern": pattern, "p": p, "seed": seed}))
    for identity in ("four_term", "elementary", "involution", "a2_pentagon_substitution"):
        for p in (3, 5, 7, 11, 13):
            entries.append((check_named_identity, {"name": identity, "p": p, "seed": seed}))
    for p in (3, 5):
        entries.append((check_named_identity, {"name": "a2_five_term_charp", "p": p, "seed": seed}))
    for p in (5, 7, 11, 13):
        entries.append((check_named_identity, {"name": "pentagon", "p": p, "seed": seed}))
    for pattern in ("A2", "B2"):
        entries.append((check_lemma_wedge,
                        {"pattern": pattern, "field": QQ, "precision": 6, "trials": 25, "seed": seed}))
        entries.append((check_lemma_wedge,
                        {"pattern": pattern, "field": GF(7), "precision": 6,
                         "exhaustive_constants": True, "seed": seed}))
    for m, w in PENTAGON_PARAMS:
        entries.append((check_welldef, {"m": m, "w": w, "trials": 100, "perturbations": 10, "seed": seed}))
    for p in (3, 5, 7, 11, 13):
        entries.append((check_li2p_lift, {"p": p, "seed": seed}))
    for m, w in PENTAGON_PARAMS:
        entries.append((check_scale_weight, {"m": m, "w": w, "trials": 100, "seed": seed}))
    for m, w in PENTAGON_PARAMS:
        entries.append((check_vanish_constants, {"m": m, "w": w, "trials": 100, "seed": seed}))
    for pattern in ("A1", "A2", "B2"):
        entries.append((check_theta_invariance, {"pattern": pattern}))
        entries.append((check_mutation_involution, {"pattern": pattern, "trials": 350, "seed": seed}))
        entries.append((check_periodicity_report, {"pattern": pattern, "trials": 50, "seed": seed}))
    return entries


def run_suite(seed: int = 0, select: str | None = None) -> SuiteReport:
    """Run the acceptance battery; `select` filters checks by descriptor substring."""
    checks = []
    for fn, kwargs in _battery(seed):
        descriptor = fn.__name__ + ":" + ",".join(f"{k}={v!r}" for k, v in kwargs.items())
        if select is not None and select not in descriptor:
            continue
        checks.append(fn(**kwargs))
    config = {"seed": seed, "select": select or "all"}
    return SuiteReport(config=config, checks=checks)
