"""Weight-two Bloch complex machinery over k[t]/(t^N).

The differential delta sends a flat symbol [a] to the wedge (1 - a) ^ a inside
the second exterior power of the unit group.  Wedges are kept as WedgeLedger
objects: formal integer combinations of ordered pairs of units, with no
rewriting applied on insertion.  Consumers are linear: the antisymmetric
functional pairs (ell_i ^ ell_j) and the rationalized zero test.  A ledger
resolves each term to (coeff, log left, log right): each side's log_circ as an
int numerator tuple on one ledger-wide common denominator, computed afresh on
every evaluation, with no cache or side index: preconditions are checked once
per ledger and each side is one call of the field's log kernel.  _pair_sums
evaluates the antisymmetric form of every coordinate pair of a list on such
rows in one pass, as ints: a field value is made only for a result.

Zero testing works through the splitting of a unit a into its constant a(0)
and the principal part exp(log_circ(a)).  Rationally (torsion discarded) a
unit is a coordinate vector: the t^1 .. t^(N-1) coefficients of log_circ(a),
then the exponents of a(0) over a coprime base of the rational constants.  A
ledger vanishes iff the antisymmetric form sum coeff * (left ^ right) vanishes
at every coordinate pair.  Its pairs make the three components, in order:

  (i)   infinitesimal: (ell_i ^ ell_j), i < j < N;
  (ii)  mixed: (v_q ^ ell_d), the exponent at base element q against ell_d;
  (iii) constants: (v_q ^ v_r) on exponent vectors, base elements q < r.

The coprime base comes from factor refinement (Bach, Driscoll and Shallit,
"Factor refinement", J. Algorithms 15, 1993): pairwise-coprime integers > 1
of which every |numerator| and denominator of the constants is a product of
powers.  Coprime elements are multiplicatively independent, and each prime
divides one base element only, so its valuation is a fixed multiple of that
element's exponent: the form vanishes over the base iff it vanishes over the
primes, and every ledger is decided without factoring.

The sign character of a rational constant is 2-torsion and every sign wedge
dies rationally, so signs are dropped.  Over GF(p) the constants form a finite
group and the principal units a finite p-group, so blocks (ii) and (iii) are
torsion and vanish rationally: the coordinates there are the logs alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations, product

from .fields import FieldElement
from .series import NonUnitError, NotFlatError, PrecisionError, TruncatedSeries, _require_charp_precision, log_circ

__all__ = [
    "WedgeLedger",
    "ZeroTestResult",
    "apply_functional_pair",
    "delta",
    "ell",
    "pentagon_terms",
    "zero_test_rational",
]


def ell(a_index: int, u: TruncatedSeries) -> FieldElement:
    """The homomorphism ell_a = (coefficient of t^a) of log_circ.

    Additive in products: ell_a(uv) = ell_a(u) + ell_a(v); kills constants.
    """
    if not 1 <= a_index < u.precision:
        raise PrecisionError(
            f"functional index {a_index} out of range for precision {u.precision}"
        )
    return log_circ(u).coeff(a_index)


class WedgeLedger:
    """A formal integer combination of wedges left ^ right of unit series.

    The representation is non-canonical by design: no relations are applied on
    construction, and zero membership is decided by zero_test_rational.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, TruncatedSeries, TruncatedSeries]] = ()) -> None:
        checked: list[tuple[int, TruncatedSeries, TruncatedSeries]] = []
        reference: TruncatedSeries | None = None
        for coeff, left, right in terms:
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError(f"ledger coefficient must be an integer, got {coeff!r}")
            for side in (left, right):
                if not side.nums[0]:
                    raise NonUnitError(f"ledger entry {side} is not a unit")
                if reference is None:
                    reference = side
                elif side.field is not reference.field or len(side.nums) != len(reference.nums):
                    raise PrecisionError("all ledger entries must share field and precision")
            if coeff:
                checked.append((coeff, left, right))
        self.terms = tuple(checked)

    def logged(self) -> tuple[int, tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]]:
        """(den, ((coeff, log(left), log(right)), ...)), a pure function of terms.

        A log is the numerator tuple of log_circ(side), scaled to the common
        denominator den of all logs: two logs per term on each call, after one
        precondition check per ledger, each side one call of the field's kernel.
        """
        return _log_rows(self.terms)


def _log_rows(terms) -> tuple[int, tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]]:
    """logged() of unit terms sharing field and precision: one char-p precision check, one kernel call a side."""
    if terms:
        _require_charp_precision(terms[0][1], "log_circ")
    logs = [side.field.log_circ(side.nums, side.den) for _, left, right in terms for side in (left, right)]
    den = math.lcm(*(d for _, d in logs))
    nums = [n if d == den else tuple(x * (den // d) for x in n) for n, d in logs]
    return den, tuple((c, nums[2 * k], nums[2 * k + 1]) for k, (c, _, _) in enumerate(terms))


def delta(alpha: TruncatedSeries) -> WedgeLedger:
    """The Bloch differential on a flat symbol: [a] -> (1 - a) ^ a."""
    if not alpha.is_flat:
        raise NotFlatError(f"delta requires a flat series, got constant term {alpha.constant_term()}")
    return WedgeLedger([(1, 1 - alpha, alpha)])


def pentagon_terms(a: TruncatedSeries, b: TruncatedSeries) -> list[tuple[int, TruncatedSeries]]:
    """The five-term combination [a] - [b] + [b/a] - [(1-1/a)/(1-1/b)] + [(1-a)/(1-b)].

    Returns (sign, argument) pairs.  Defined when a(1-a)b(1-b)(b-a) is a unit,
    which makes every argument flat.  Two inversions suffice, as
    (1-1/a)/(1-1/b) = ((1-a)/(1-b)) * (b/a) needs the same units.
    """
    for name, s in (("a", a), ("b", b)):
        if not s.is_flat:
            raise NotFlatError(f"pentagon argument {name} must be flat")
    if a.nums[0] * b.den == b.nums[0] * a.den:
        raise NotFlatError("pentagon requires b - a to be a unit")
    return _pentagon_terms(a, a.invert(), 1 - a, b, (1 - b).invert())


def _pentagon_terms(a, inv_a, one_minus_a, b, inv_one_minus_b) -> list[tuple[int, TruncatedSeries]]:
    """pentagon_terms(a, b) from a, 1/a, 1 - a, b and 1/(1 - b), unchecked, in three products."""
    ratio = b * inv_a
    rest = one_minus_a * inv_one_minus_b
    return [(1, a), (-1, b), (1, ratio), (-1, rest * ratio), (1, rest)]


def apply_functional_pair(f_index: int, g_index: int, ledger: WedgeLedger) -> FieldElement:
    """Evaluate the antisymmetric pair (ell_f ^ ell_g) on a ledger.

    (f ^ g)(x ^ y) = f(x) g(y) - f(y) g(x), extended linearly.
    """
    if not ledger.terms:
        raise ValueError("cannot infer field from an empty ledger; evaluate termwise")
    field = ledger.terms[0][1].field
    precision = ledger.terms[0][1].precision
    for index in (f_index, g_index):
        if not 1 <= index < precision:
            raise PrecisionError(f"functional index {index} out of range for precision {precision}")
    den, rows = ledger.logged()
    (total,) = _pair_sums(rows, [(f_index, g_index)])
    return FieldElement(field, field.quotient(total, den * den))


def _pair_sums(rows, pairs: list[tuple[int, int]]) -> list[int]:
    """sums[k] = sum coeff * (left[f] * right[g] - left[g] * right[f]) over rows (coeff, left, right),
    for pairs[k] = (f, g): the antisymmetric form at every pair, in one pass; unchecked."""
    sums = [0] * len(pairs)
    for coeff, lo, ro in rows:
        for k, (f, g) in enumerate(pairs):
            sums[k] += coeff * (lo[f] * ro[g] - lo[g] * ro[f])
    return sums


class ZeroTestResult(namedtuple("ZeroTestResult", "verdict failing_component detail", defaults=(None, ""))):
    """Outcome of the rationalized zero test: verdict "zero" or "nonzero",
    and for "nonzero" the first failing component."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return self.verdict == "zero"


def _coprime_exponents(values: set[Fraction]) -> tuple[dict[Fraction, tuple[int, ...]], list[int]]:
    """(exponents, base): each nonzero rational's exponent tuple over one sorted coprime base; signs dropped.

    Factor refinement: a base element b sharing a factor g > 1 with a pending
    number x is replaced by g and b // g, which are refined again with x // g.
    Each split divides the product of all pending and base numbers by g, so the
    loop ends, with every |numerator| and denominator a product of base powers.
    Every base element divides some input, so it has a nonzero exponent in one.
    """
    base: list[int] = []
    pending = [n for value in values for n in (abs(value.numerator), value.denominator)]
    while pending:
        x = pending.pop()
        if x == 1:
            continue
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[i]
                pending += (g, b // g, x // g)
                break
        else:
            base.append(x)
    base.sort()

    def exponent(n: int, b: int) -> int:
        e = 0
        while n % b == 0:
            n //= b
            e += 1
        return e

    return {value: tuple(exponent(abs(value.numerator), b) - exponent(value.denominator, b) for b in base)
            for value in values}, base


def zero_test_rational(ledger: WedgeLedger) -> ZeroTestResult:
    """Decide whether a ledger represents 0 in the rationalized wedge square.

    Coordinates 1 .. N-1 of a side are its log; over QQ coordinate N + a is den
    times its constant's exponent at base[a].  The first nonzero pair is named.
    """
    if not ledger.terms:
        return ZeroTestResult("zero")

    field = ledger.terms[0][1].field
    n = ledger.terms[0][1].precision
    den, rows = ledger.logged()
    base: list[int] = []
    if not field.characteristic:
        constants = [(left.constant_term().value, right.constant_term().value) for _, left, right in ledger.terms]
        exponents, base = _coprime_exponents({c for pair in constants for c in pair})
        scaled = {c: tuple(den * e for e in vector) for c, vector in exponents.items()}
        rows = [(coeff, lo + scaled[cl], ro + scaled[cr]) for (coeff, lo, ro), (cl, cr) in zip(rows, constants)]

    logs, exps = range(1, n), range(n, n + len(base))
    pairs = [*combinations(logs, 2), *product(exps, logs), *combinations(exps, 2)]
    for (f, g), total in zip(pairs, _pair_sums(rows, pairs)):
        if total and (entry := field.quotient(total, den * den)):
            if f < n:
                return ZeroTestResult("nonzero", "infinitesimal", f"(ell_{f} ^ ell_{g}) evaluates to {entry}")
            q = base[f - n]
            if g < n:
                return ZeroTestResult("nonzero", "mixed",
                                      f"base element {q} accumulator has t^{g} coefficient {entry}")
            return ZeroTestResult("nonzero", "constants", f"(v_{q} ^ v_{base[g - n]}) evaluates to {entry}")
    return ZeroTestResult("zero")
