"""Weight-two Bloch complex machinery over k[t]/(t^N).

The differential delta sends a flat symbol [a] to the wedge (1 - a) ^ a inside
the second exterior power of the unit group.  Wedges are kept as WedgeLedger
objects: formal integer combinations of ordered pairs of units, with no
rewriting applied on insertion.  Consumers are linear: the antisymmetric
functional pairs (ell_i ^ ell_j) and the rationalized zero test.  A ledger
computes each distinct side's log_circ once, brings every log onto one
ledger-wide common denominator and resolves each term to (coeff, log left,
log right) as int numerator tuples, once.  The pairs and the mixed zero-test
component sum plain ints over that denominator and make one field value at
the end (one Fraction over QQ, one residue over GF(p)).

Zero testing works through the splitting of a unit a into its constant a(0)
and the principal part exp(log_circ(a)).  Rationally (torsion discarded) a
ledger vanishes iff three components vanish:

  (i)  the infinitesimal component: the antisymmetric matrix of all
       (ell_i ^ ell_j) values, i, j = 1 .. N-1;
  (ii) the mixed component: for each prime q in the multiplicative support of
       the rational constants, the series-valued accumulator pairing the
       q-adic valuation of the constant on one side with log_circ on the
       other;
  (iii) the constant component: the antisymmetric integer pairing of q-adic
       valuation vectors over pairs of support primes.

The sign character of a rational constant is 2-torsion and every sign wedge
dies rationally, so signs are dropped.  Over GF(p) the constants form a finite
group and the principal units a finite p-group, so components (ii) and (iii)
are torsion and vanish rationally; only component (i) carries rational
information there.  Constants are factored by trial division up to
factor_bound; a constant that cannot be certified fully factored makes the
verdict `inconclusive` rather than risking a wrong answer.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .fields import FieldElement
from .series import NonUnitError, NotFlatError, PrecisionError, TruncatedSeries, log_circ

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

    __slots__ = ("terms", "_logged")

    def __init__(self, terms: Iterable[tuple[int, TruncatedSeries, TruncatedSeries]] = ()) -> None:
        checked: list[tuple[int, TruncatedSeries, TruncatedSeries]] = []
        reference: TruncatedSeries | None = None
        for coeff, left, right in terms:
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError(f"ledger coefficient must be an integer, got {coeff!r}")
            for side in (left, right):
                if not side.is_unit:
                    raise NonUnitError(f"ledger entry {side} is not a unit")
                if reference is None:
                    reference = side
                elif side.field is not reference.field or side.precision != reference.precision:
                    raise PrecisionError("all ledger entries must share field and precision")
            if coeff:
                checked.append((coeff, left, right))
        self.terms = tuple(checked)
        self._logged: tuple | None = None

    def logged(self) -> tuple[int, tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]]:
        """(den, ((coeff, log(left), log(right)), ...)), resolved once on first use.

        A log is the numerator tuple of log_circ(side), computed once per
        distinct side and scaled to the common denominator den of all logs.
        """
        if self._logged is None:
            index: dict[TruncatedSeries, int] = {}  # side -> position of its log
            resolved = [(c, index.setdefault(l, len(index)), index.setdefault(r, len(index)))
                        for c, l, r in self.terms]
            logs = [log_circ(side) for side in index]
            den = math.lcm(*(log.den for log in logs))
            nums = [tuple(x * (den // log.den) for x in log.nums) for log in logs]
            self._logged = den, tuple((c, nums[i], nums[j]) for c, i, j in resolved)
        return self._logged

    def __add__(self, other: "WedgeLedger") -> "WedgeLedger":
        return WedgeLedger(self.terms + other.terms)

    def scaled(self, factor: int) -> "WedgeLedger":
        if factor == 0:
            return WedgeLedger()
        return WedgeLedger((factor * c, l, r) for c, l, r in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __repr__(self) -> str:
        return f"WedgeLedger({len(self.terms)} terms)"


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
    ratio = b / a
    rest = (1 - a) / (1 - b)
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
    den, logged = ledger.logged()
    total = 0
    for coeff, lo, ro in logged:
        total += coeff * (lo[f_index] * ro[g_index] - lo[g_index] * ro[f_index])
    return FieldElement(field, field.quotient(total, den * den))


class ZeroTestResult(namedtuple("ZeroTestResult", "verdict failing_component detail", defaults=(None, ""))):
    """Outcome of the rationalized zero test: verdict "zero", "nonzero" or "inconclusive",
    and for "nonzero" the first failing component."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return self.verdict == "zero"


def _factor_positive(n: int, bound: int) -> dict[int, int] | None:
    """Trial-divide n; None when a cofactor cannot be certified prime."""
    if n <= 0:
        raise ValueError("factorization argument must be positive")
    factors: dict[int, int] = {}
    d = 2
    while d <= bound and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        # no prime factor <= min(bound, sqrt(n)) remains; n is prime if it is
        # small enough to certify, otherwise the factorization is incomplete
        if n <= bound * bound:
            factors[n] = factors.get(n, 0) + 1
        else:
            return None
    return factors


def _rational_exponents(value: Fraction, bound: int) -> dict[int, int] | None:
    """Prime exponent vector of a nonzero rational; sign dropped (2-torsion)."""
    num = _factor_positive(abs(value.numerator), bound)
    if num is None:
        return None
    den = _factor_positive(value.denominator, bound)
    if den is None:
        return None
    for q, e in den.items():
        num[q] = num.get(q, 0) - e
    return {q: e for q, e in num.items() if e}


def zero_test_rational(ledger: WedgeLedger, factor_bound: int = 10**6) -> ZeroTestResult:
    """Decide whether a ledger represents 0 in the rationalized wedge square."""
    if factor_bound < 2:
        raise ValueError("factor_bound must be at least 2")
    if not ledger.terms:
        return ZeroTestResult("zero")

    field = ledger.terms[0][1].field
    precision = ledger.terms[0][1].precision
    char = field.characteristic

    # (i) infinitesimal component == every antisymmetric functional pair
    for i in range(1, precision):
        for j in range(i + 1, precision):
            entry = apply_functional_pair(i, j, ledger)
            if entry:
                return ZeroTestResult(
                    "nonzero",
                    "infinitesimal",
                    f"(ell_{i} ^ ell_{j}) evaluates to {entry}",
                )

    if char != 0:
        # GF(p)^x and the principal units are finite groups, so the mixed and
        # constant components are torsion and vanish after rationalization.
        return ZeroTestResult("zero")

    # each term's two constants, read once from the numerators over den
    constants = [(left.constant_term().value, right.constant_term().value)
                 for _, left, right in ledger.terms]
    exponents: dict[Fraction, dict[int, int]] = {}
    for pair in constants:
        for c in pair:
            if c not in exponents:
                vec = _rational_exponents(c, factor_bound)
                if vec is None:
                    return ZeroTestResult(
                        "inconclusive",
                        None,
                        f"constant {c} does not factor over primes <= {factor_bound}",
                    )
                exponents[c] = vec

    support = sorted({q for vec in exponents.values() for q in vec})

    # (ii) mixed component: one series-valued accumulator per support prime,
    # summed as numerators over the ledger's log denominator
    den, logged = ledger.logged()
    for q in support:
        acc = [0] * precision
        for (coeff, lo, ro), (cl, cr) in zip(logged, constants):
            eq_l = coeff * exponents[cl].get(q, 0)
            eq_r = coeff * exponents[cr].get(q, 0)
            if not eq_l and not eq_r:
                continue
            for d in range(1, precision):
                acc[d] += eq_l * ro[d] - eq_r * lo[d]
        if any(acc):
            bad = next(d for d in range(1, precision) if acc[d])
            return ZeroTestResult(
                "nonzero",
                "mixed",
                f"prime {q} accumulator has t^{bad} coefficient {field.quotient(acc[bad], den)}",
            )

    # (iii) constant component: antisymmetric integer form on exponent vectors
    for a_pos, q in enumerate(support):
        for r in support[a_pos + 1:]:
            entry = 0
            for (coeff, _, _), (cl, cr) in zip(ledger.terms, constants):
                el, er = exponents[cl], exponents[cr]
                entry += coeff * (el.get(q, 0) * er.get(r, 0) - el.get(r, 0) * er.get(q, 0))
            if entry:
                return ZeroTestResult(
                    "nonzero",
                    "constants",
                    f"(v_{q} ^ v_{r}) evaluates to {entry}",
                )

    return ZeroTestResult("zero")
