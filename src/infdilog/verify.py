"""Exact pass/fail checkers for the dilogarithm, cluster, and wedge identities.

Every check asserts exact equality with zero; there are no tolerances.  All
checks share one driver: a judge maps a point to None when a validity filter (a
failed inversion, a non-flat value) rejects it, to True when it holds, or else
to the witness {"inputs", "value"} of its failure, and `_tally` keeps the
counts.  Every judge has one call shape: a point's coordinates are its
positional arguments, judge(*point), whether they are least residues, dual
numbers or series.  Every identity stated as a weighted sum of one dilogarithm
that must vanish is judged by the one witness builder, `_vanishing`, from its
(weight, argument) terms, as a raw sum reduced once, with one exception:
scale-weight, li(lam a) - lam^w li(a), names both sides in its own "lhs vs rhs"
witness.  A char-p enumeration reads li2p (`_li2p_values`) as least residues
from a memo that lives for one check, a sampled char-p check calls li2p
directly, and four_term's pounds1 residues and the pentagon substitution's
units come from memos that live for one check too.  Each identity has one
judge, which takes series and the field's dilogarithm and runs in either
characteristic: `_pentagon_judge`, `_lift_judge` (welldef and li2p-lift) and
the trajectory judge `_cluster_judge` (both cluster sums and the lemma), which
walks the schedule lazily and rejects a point at its first non-flat recorded
value before mutating past it; only the point sources differ between fields.  A
point source is either an exhaustive enumeration (`_exhaust`) or seeded
sampling (`_resample`).  `_sampled` opens every sampled report whose params are
the family's own plus trials, height and seed, the lemma's too; only the
coordinate checks (params p and mode) and periodicity (which can fail before a
draw) open theirs by hand.  Trial k of a check, or point k of an enumeration
that draws per point, draws from random.Random seeded with the string "master
seed:check id:k", so reports are deterministic and independent of execution
order; rejected samples are resampled, up to RESAMPLE_FACTOR attempts per
requested trial, and a sampled check that cannot gather enough valid samples
reports that instead of passing.  Prime-field point spaces are enumerated
exhaustively whenever p^dimension stays within EXHAUSTIVE_LIMIT and a trial
count is not forced; above the limit a trial count is required.  A named
identity is a judge factory, make(field, li2p) -> judge, built once per check
with the check's li2p; a dual judge reads dual numbers.  An exhaustive
cluster-p or named check passes when no valid point fails, even if no point was
valid: at p = 3 the A2 and B2 cluster sums and four of the named identities
pass that way, with valid = 0 in their reports (the battery leaves out the
pentagon at p = 3).

An exhaustive check over n dual numbers s_i + a_i t (cluster-p, and the named
elementary, involution, pentagon and a2_five_term_charp) first tries to certify
a pass from its p^n constant points.  li2p(s + a t) = (a / (s(1 - s)))^p
pounds1(s) is linear in a over GF(p), and precision-2 arithmetic is k[t]/(t^2),
so each weighted sum is linear in the tangent (a_1, ..., a_n) and validity
reads only constant terms.  Once per check, li2p(s + b t) = b li2p(s + t) is
checked at every flat s and every b through the check's li2p memo, which its
judges then read; then each constant point is judged at the zero tangent, the n
basis tangents and a guard tangent from its per-point rng, and counts as p^n
points when all n + 2 are rejected or all are True.  Anything else redoes the
check by enumerating every point, so only passes are certified this way, every
failing report is the enumeration's, and the counts always cover every point.
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

    def __init__(self, name: str, params: dict) -> None:
        self.name, self.params, self.witnesses, self.verdict = name, params, [], VERDICT_PASS
        self.attempted = self.valid = self.rejected = self.failed = 0

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


def _tally(report: CheckReport, outcome: dict | bool | None, count: int = 1) -> bool:
    """Count `count` attempted points that share one outcome; return whether they were valid.

    outcome is None for a rejected point, True for a point that holds, and otherwise the
    witness {"inputs", "value"} of a failure: any outcome but None and True fails.
    """
    report.attempted += count
    if outcome is None:
        report.rejected += count
        return False
    report.valid += count
    if outcome is not True:
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
    """Judge every point of an enumerated point space, each point's coordinates being judge's arguments."""
    for point in points:
        _tally(report, judge(*point))
    return report.finish(min_valid=min_valid)


def _li2p_is_tangent_linear(p: int, li2p, dual) -> bool:
    """Whether li2p(s + b t) = b li2p(s + t) for every flat s and every b in GF(p), dual((s, b)) being s + b t.

    li2p is the check's memo lookup, so residues are compared.  dilog.li2p is a * W_p(s) by construction: this
    guards against a replaced li2p only."""
    for s in range(2, p):
        unit = li2p(dual((s, 1)))
        if any(li2p(dual((s, b))) != b * unit % p for b in range(p) if b != 1):
            return False
    return True


def _exhaust_by_tangent_linearity(report: CheckReport, p: int, n: int, seed: int,
                                  judge, li2p, dual) -> CheckReport | None:
    """Certify a pass over GF(p)^(2n) from its p^n constant points, or return None.

    judge takes n dual numbers s_i + a_i t, each made as dual((s_i, a_i));
    the guard tangent of constant point k comes from the rng of (seed,
    report.name, k).  None (li2p is not tangent-linear, or some constant
    point's n + 2 outcomes are mixed or not all True) leaves the verdict to
    enumerating every point.
    """
    if not _li2p_is_tangent_linear(p, li2p, dual):
        return None
    zero = (0,) * n
    tangents = [zero] + [zero[:i] + (1,) + zero[i + 1:] for i in range(n)]
    for constants, rng in _seeded_points(report, p, n, seed):
        guard = tuple(rng.randrange(p) for _ in range(n))
        outcomes = [judge(*map(dual, zip(constants, tangent))) for tangent in (*tangents, guard)]
        if all(outcome is None for outcome in outcomes):
            _tally(report, None, p ** n)
        elif all(outcome is True for outcome in outcomes):
            _tally(report, True, p ** n)
        else:
            return None
    return report.finish(min_valid=0)


def _require_enumerable(p: int, dimension: int, remedy: str) -> None:
    """Refuse, with ValueError, to enumerate GF(p)^dimension above EXHAUSTIVE_LIMIT."""
    if p ** dimension > EXHAUSTIVE_LIMIT:
        raise ValueError(f"GF({p})^{dimension} has {p ** dimension} points, more than the"
                         f" exhaustive limit {EXHAUSTIVE_LIMIT}; {remedy}")


def _check_coords(family: str, subject: str, params: dict, p: int, dimension: int,
                  trials: int | None, seed: int, judge, li2p=None) -> CheckReport:
    """Judge points of GF(p)^dimension, their least residues being judge's positional arguments.

    The whole space is enumerated when it stays within EXHAUSTIVE_LIMIT and no
    trial count is forced; otherwise `trials` valid points are sampled.  A space
    above the limit with no trial count is refused with ValueError.  li2p, the judge's own `_li2p_values`
    lookup, says the point is dimension / 2 dual numbers s_i + a_i t, handed to judge as its arguments, each
    made from (s_i, a_i) by the trusted constructor: an exhaustive pass is then first sought from the constant
    points by `_exhaust_by_tangent_linearity`, whose guard reads li2p through it, and any other outcome comes
    from enumerating every point on a fresh report.
    """
    exhaustive = trials is None
    if exhaustive:
        _require_enumerable(p, dimension, "give a trial count")
    mode = "exhaustive" if exhaustive else f"random[{trials}]"

    def new_report() -> CheckReport:
        return CheckReport(name=f"{family}[{subject},p={p},{mode}]",
                           params={**params, "p": p, "mode": mode, "seed": seed})

    field = GF(p)

    def dual(pair):
        return _series(field, (pair, 1))

    judge_coords = judge if li2p is None else lambda *coords: judge(*map(dual, zip(coords[::2], coords[1::2])))

    if not exhaustive:
        return _resample(new_report(), trials, seed,
                         lambda rng: judge_coords(*[rng.randrange(p) for _ in range(dimension)]))
    if li2p is not None:
        report = _exhaust_by_tangent_linearity(new_report(), p, dimension // 2, seed, judge, li2p, dual)
        if report is not None:
            return report
    return _exhaust(new_report(), itertools.product(range(p), repeat=dimension), judge_coords)


def _resolve_pattern(pattern):
    """(matrix, schedule, name) of a built-in name or a (matrix, schedule) pair; builtin_pattern
    validated a built-in as it made it, so only a hand-built pair is validated here."""
    if isinstance(pattern, str):
        matrix, schedule = cluster.builtin_pattern(pattern)
    else:
        matrix, schedule = pattern
        schedule.validate(matrix)
    return matrix, schedule, schedule.name


def _vanishing(field: Field, value_of, terms, inputs, label: str = "") -> dict | bool:
    """The witness that sum weight * value_of(arg) over (weight, arg) terms is zero.

    A raw sum of weight * value, reduced once; an int weight or value is added as it is, any other weight
    goes through field.element and any other value through field.scalar, so a weight or a value of another
    field raises FieldMismatchError.  A zero sum gives True; only a failure calls inputs() and renders the
    witness text."""
    total = 0
    for weight, arg in terms:
        weight = weight if type(weight) is int else field.element(weight).value
        value = value_of(arg)
        total += weight * (value if type(value) is int else field.scalar(value))
    total = field.reduce(total)
    return {"inputs": inputs(), "value": f"{label}{total}"} if total else True


def _li2p_values(field: Field, trials: int | None = None):
    """li2p of a GF(p) dual number by dilog.li2p as the check starts: called directly given a trial count, else
    read from a memo that lives for one enumeration keyed by least residues, which its tangent guard fills; a
    miss rebuilds the number from them by the trusted constructor and stores field.scalar of its li2p, a least
    residue, so another field's value raises FieldMismatchError as the key fills."""
    li2p = dilog.li2p
    if trials is not None:
        return li2p
    memo = _Memo(lambda nums: field.scalar(li2p(_series(field, (nums, 1)))))
    return lambda y: memo[y.nums]


def _cluster_judge(pattern, verdict):
    """(matrix, name, weights, judge) of a pattern whose matrix returns to nu of itself.

    judge(*point), one argument a coordinate, walks the schedule from point, reading each y_r before
    its mutation: None at the first -y_r that is not flat (y_r or 1 + y_r is not a unit), else
    verdict(terms, inputs) of the (theta_r, -y_r) pairs, where inputs() renders the point.  A flat
    -y_r makes y_r, 1 + y_r and 1 + 1/y_r units, so no mutation can fail; the unread last one never
    runs."""
    matrix, schedule, name = _resolve_pattern(pattern)
    if not cluster.matrix_returns(matrix, schedule):
        raise ValueError(f"pattern {name} is not nu-periodic at the matrix level")
    weights = schedule.resolved_theta(matrix)

    def judge(*point):
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
            return True
        return {"inputs": {"a": str(a)}, "value": f"direct {direct} vs closed {closed}"}

    return _sampled(f"oracle-agreement[m={m},w={w}]", {"m": m, "w": w}, trials, height, seed, evaluate)


def _pentagon_judge(field: Field, li):
    """judge(a, b) of the five-term relation for li over field, in either characteristic.

    None unless a(1-a)b(1-b)(b-a) is a unit, which makes every pentagon
    argument flat; else the witness that the weighted li values vanish."""
    def judge(a, b):
        if not (a.is_flat and b.is_flat) or a.nums[0] * b.den == b.nums[0] * a.den:  # a(0) = b(0)
            return None
        return _vanishing(field, li, bloch.pentagon_terms(a, b), lambda: {"a": str(a), "b": str(b)})
    return judge


def check_pentagon(m: int, w: int, trials: int = 100, height: int = 10, seed: int = 0) -> CheckReport:
    """The five-term relation for li_{m,w} over the rationals; its char-p form is the named `pentagon`."""
    dilog.validate_modulus_weight(m, w)
    judge = _pentagon_judge(QQ, lambda arg: dilog.li_direct(m, w, arg))
    return _sampled(f"pentagon[q,m={m},w={w}]", {"field": "q", "m": m, "w": w}, trials, height, seed,
                    lambda rng: judge(random_series(QQ, m, rng, height), random_series(QQ, m, rng, height)))


def _lift_judge(field: Field, direct, via_lift, top: int):
    """judge(base, tails) of lift independence of the Bloch-differential formula, in either characteristic: via_lift
    of base zero-padded to precision top equals direct(base), and via_lift of base + tail, for each tail of raw
    coefficients in degrees base.precision to top - 1, equals that."""
    def judge(base, tails):
        lift = base.with_precision(top)
        reference, expected = via_lift(lift), direct(base)
        if reference != expected:
            return {"inputs": {"lift": str(lift)}, "value": f"lift {reference} vs direct {expected}"}
        head = base.coeffs
        for tail in tails:
            lift = TruncatedSeries(field, head + tail)
            got = via_lift(lift)
            if got != reference:
                return {"inputs": {"lift": str(lift)}, "value": f"{got} != {reference}"}
        return True
    return judge


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
    judge = _lift_judge(QQ, lambda a: dilog.li_direct(m, w, a), lambda lift: dilog.li_via_lift(m, w, lift), w)

    def evaluate(rng: random.Random):
        base = _sample_flat(QQ, m, rng, height)
        if base is None:
            return None
        return judge(base, [tuple([QQ.random_element(rng, height).value for _ in range(w - m)])
                            for _ in range(perturbations)])

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
            return True
        return {"inputs": {"a": str(a), "lam": str(lam)}, "value": f"{lhs} vs {rhs}"}

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
    judge = _lift_judge(field, dilog.li2p, dilog.li2p_via_lift, p)

    def evaluate(index, dual):
        if dual[0] in (0, 1):
            return None
        rng = _derive_rng(seed, report.name, index)  # the rng of point index, as _seeded_points derives it
        return judge(_series(field, (dual, 1)),
                     [tuple([rng.randrange(p) for _ in range(2, p)]) for _ in range(perturbations)])

    return _exhaust(report, enumerate(itertools.product(range(p), repeat=2)), evaluate, min_valid=1)


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
                    lambda rng: judge(*[random_series(QQ, m, rng, height) for _ in range(matrix.n)]))


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
    li2p = _li2p_values(field, trials)
    matrix, name, weights, judge = _cluster_judge(pattern, lambda terms, inputs: _vanishing(
        field, li2p, terms, inputs, "li2p sum "))
    return _check_coords("clusterp", name, {"pattern": name, "theta": list(weights)},
                         p, 2 * matrix.n, trials, seed, judge, li2p)


# -- named char-p identities --------------------------------------------------


def _four_term(field, _):
    p = field.characteristic
    pounds1 = _Memo(lambda x: field.scalar(dilog.pounds1(FieldElement(field, x))))  # per check: p may be ~10^9

    def judge(r, s):
        if r in (0, 1) or s in (0, 1) or r == s:
            return None
        # the weights r^p and (s - 1)^p are r and s - 1 in GF(p)
        terms = [(1, r), (-1, s), (r, s * field.inv(r) % p), (s - 1, (1 - r) * field.inv((1 - s) % p) % p)]
        return _vanishing(field, pounds1.__getitem__, terms, lambda: {"r": str(r), "s": str(s)})
    return judge


def _elementary(field, li2p):
    return lambda z: _vanishing(field, li2p, [(1, 1 - z), (1, z)], lambda: {"z": str(z)}) if z.is_flat else None


def _involution(field, li2p):
    return lambda y: _vanishing(field, li2p, [(1, y.invert()), (1, y)], lambda: {"y": str(y)}) if y.is_flat else None


def _a2_five_term_charp(field, li2p):
    def judge(y1, y2):
        if not (y1.is_unit and y2.is_unit):
            return None
        inv1, inv2 = y1.invert(), y2.invert()
        args = [y1, y2 * (1 - y1), inv1 * (1 - y2 + y1 * y2), inv1 * (1 - inv2), inv2]
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

    def judge(r, s):
        if r in (0, 1) or s in (0, 1) or r == s:
            return None
        (x, inv_x, one_minus_x, _), (y, _, _, inv_one_minus_y) = memo[r], memo[s]
        return _vanishing(field, li2p, bloch._pentagon_terms(x, inv_x, one_minus_x, y, inv_one_minus_y),
                          lambda: {"r": str(r), "s": str(s)})
    return judge


# name: (make, dimension, dual); make(field, li2p) builds the judge once per check, li2p being the check's
# `_li2p_values` (four_term keeps a memo of pounds1's least residues); dual: the judge takes dimension / 2 dual
# numbers as its arguments, else dimension least residues; a judge returns None, True or a witness
NAMED_IDENTITIES = {
    "four_term": (_four_term, 2, False),
    "elementary": (_elementary, 2, True),
    "involution": (_involution, 2, True),
    "pentagon": (_pentagon_judge, 4, True),
    "a2_five_term_charp": (_a2_five_term_charp, 4, True),
    "a2_pentagon_substitution": (_a2_pentagon_substitution, 2, False),
}


def check_named_identity(name: str, p: int, trials: int | None = None, seed: int = 0) -> CheckReport:
    """One of the named char-p functional equations, exhaustive when affordable; its judge is built per check."""
    if name not in NAMED_IDENTITIES:
        known = ", ".join(sorted(NAMED_IDENTITIES))
        raise ValueError(f"unknown identity {name!r}; known: {known}")
    make, dimension, dual = NAMED_IDENTITIES[name]
    li2p = _li2p_values(GF(p), trials)
    return _check_coords("named", name, {"identity": name}, p, dimension, trials, seed, make(GF(p), li2p),
                         li2p if dual else None)


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
            return True
        return {"inputs": inputs(), "value": f"{result.failing_component}: {result.detail}"}

    matrix, pattern_name, _, judge = _cluster_judge(pattern, verdict)
    field_tag = _field_tag(field)
    mode = "exhaustive-constants" if exhaustive_constants else f"random[{trials}]"
    name = f"lemma[{pattern_name},{field_tag},N={precision},{mode}]"
    params = {"pattern": pattern_name, "field": field_tag, "precision": precision, "mode": mode}
    if not exhaustive_constants:
        return _sampled(name, params, trials, height, seed, lambda rng: judge(
            *[random_series(field, precision, rng, height) for _ in range(matrix.n)]))

    _require_enumerable(p, matrix.n, "sample the constants instead")
    report = CheckReport(name, {**params, "seed": seed})

    def judge_constants(constants, rng):
        return judge(*[TruncatedSeries(field, (c, *(rng.randrange(p) for _ in range(precision - 1))))
                       for c in constants])

    return _exhaust(report, _seeded_points(report, p, matrix.n, seed), judge_constants, min_valid=1)


# -- structural cluster checks --------------------------------------------------


def check_theta_invariance(pattern) -> CheckReport:
    """The matrix's skew-symmetrizer theta skew-symmetrizes every matrix the schedule mutates to."""
    matrix, schedule, name = _resolve_pattern(pattern)
    theta = cluster.skew_symmetrizer(matrix)
    report = CheckReport(name=f"theta-invariance[{name}]", params={"pattern": name, "theta": list(theta)})

    def judge(step, mat):
        if cluster.skew_symmetrizes(theta, mat):
            return True
        return {"inputs": {"step": str(step)},
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
            return True
        return {"inputs": {"direction": str(direction + 1),
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
                return True
        except cluster.InvalidPointError:
            return None
        return {"inputs": {f"alpha_{i + 1}": str(s) for i, s in enumerate(point)},
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
