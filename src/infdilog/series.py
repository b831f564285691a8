"""Truncated power series k[t]/(t^N) over an exact coefficient field.

A TruncatedSeries stores exactly N coefficients (the coefficient of t^i at
index i) and models a power series known through degree N - 1.  Arithmetic
requires equal field and precision; change precision explicitly with
with_precision, which zero-pads when growing (the canonical lift) and drops
coefficients when shrinking (the canonical projection).

Coefficients are stored raw, as the field's canonical values: Fractions over
QQ, least residue ints in [0, p) over GF(p).  Every operation accumulates with
plain + and * and brings each output coefficient back to canonical form once,
through the field's reduce; division goes through the field's inv.  coeff and
constant_term hand out FieldElements, and from_coeffs is the validating
constructor for arbitrary scalars.

The two composition patterns the identities need are provided as module
functions:

  log_circ(a) = log(a / a(0)) = integral of a'/a
  exp_t(u)    = exp(u) for u(0) = 0, from E' = u'E: k E_k = sum_{j<=k} j u_j E_(k-j)

Both cost O(N^2) coefficient operations, are group homomorphisms between units
and the additive group t*k[t]/(t^N), and are mutually inverse after fixing the
constant term.  Over GF(p) they are defined only for precision N <= p: they
divide only by k <= N - 1 < p, so p never appears in a denominator.  Larger
precision is refused loudly rather than silently reduced.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Union

from .fields import Field, FieldElement, FieldMismatchError, Raw

__all__ = [
    "NonUnitError",
    "NotFlatError",
    "PrecisionError",
    "TruncatedSeries",
    "exp_t",
    "log_circ",
    "random_series",
]

Scalar = Union[FieldElement, int, Fraction]


class PrecisionError(ValueError):
    """Precision mismatch, out-of-range index, or a char-p precision violation."""


class NonUnitError(ValueError):
    """The series has zero constant term where a unit is required."""


class NotFlatError(ValueError):
    """The series has constant term 0 or 1 where a flat element is required."""


class TruncatedSeries:
    """An element of k[t]/(t^N): immutable raw coefficient vector plus precision.

    The constructor trusts its coefficients to be canonical raw values of
    `field`; use from_coeffs to convert and validate arbitrary scalars.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[Raw, ...]) -> None:
        if not coeffs:
            raise PrecisionError("precision must be at least 1")
        self.field = field
        self.coeffs = coeffs

    # -- construction --------------------------------------------------------

    @classmethod
    def from_coeffs(cls, field: Field, values: Iterable[Scalar], precision: int | None = None) -> "TruncatedSeries":
        """Build from low-degree-first coefficients, zero-padded to precision."""
        coeffs = [field.element(v).value for v in values]
        if precision is None:
            precision = len(coeffs)
        if precision < 1:
            raise PrecisionError("precision must be at least 1")
        if len(coeffs) > precision:
            raise PrecisionError(f"{len(coeffs)} coefficients exceed precision {precision}")
        coeffs.extend([field.zero.value] * (precision - len(coeffs)))
        return cls(field, tuple(coeffs))

    @classmethod
    def constant(cls, field: Field, value: Scalar, precision: int) -> "TruncatedSeries":
        return cls.from_coeffs(field, [value], precision)

    @classmethod
    def zero(cls, field: Field, precision: int) -> "TruncatedSeries":
        return cls.from_coeffs(field, [], precision)

    @classmethod
    def one(cls, field: Field, precision: int) -> "TruncatedSeries":
        return cls.from_coeffs(field, [1], precision)

    # -- structure -----------------------------------------------------------

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def coeff(self, a: int) -> FieldElement:
        """The coefficient of t^a."""
        if not 0 <= a < self.precision:
            raise PrecisionError(f"coefficient index {a} out of range for precision {self.precision}")
        return FieldElement(self.field, self.coeffs[a])

    def constant_term(self) -> FieldElement:
        return FieldElement(self.field, self.coeffs[0])

    def truncate_below(self, a: int) -> "TruncatedSeries":
        """Zero every coefficient of t^a and above, keeping the precision."""
        if not 0 <= a <= self.precision:
            raise PrecisionError(f"truncation index {a} out of range for precision {self.precision}")
        zero = self.field.zero.value
        return TruncatedSeries(self.field, self.coeffs[:a] + (zero,) * (self.precision - a))

    def with_precision(self, precision: int) -> "TruncatedSeries":
        """Zero-pad (the canonical lift) or drop coefficients (the projection)."""
        if precision < 1:
            raise PrecisionError("precision must be at least 1")
        if precision <= self.precision:
            return TruncatedSeries(self.field, self.coeffs[:precision])
        pad = (self.field.zero.value,) * (precision - self.precision)
        return TruncatedSeries(self.field, self.coeffs + pad)

    def derivative(self) -> "TruncatedSeries":
        """Formal d/dt; the result is exact through degree N - 2."""
        if self.precision == 1:
            return TruncatedSeries.zero(self.field, 1)
        reduce = self.field.reduce
        coeffs = self.coeffs
        return TruncatedSeries(
            self.field, tuple(reduce(coeffs[i] * i) for i in range(1, len(coeffs)))
        )

    def scale(self, lam: Scalar) -> "TruncatedSeries":
        """The scaling action f(t) -> f(lam * t): multiplies coeff i by lam^i."""
        lam = self.field.element(lam).value
        if not lam:
            raise ValueError("scaling by 0 is not invertible and is not allowed")
        reduce = self.field.reduce
        out = []
        power = self.field.one.value
        for c in self.coeffs:
            out.append(reduce(power * c))
            power = reduce(power * lam)
        return TruncatedSeries(self.field, tuple(out))

    @property
    def is_unit(self) -> bool:
        return bool(self.coeffs[0])

    @property
    def is_flat(self) -> bool:
        """Whether a(1 - a) is a unit, i.e. a(0) is neither 0 nor 1."""
        c = self.coeffs[0]
        return bool(c) and c != 1

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- ring arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "TruncatedSeries | None":
        if isinstance(other, TruncatedSeries):
            if other.field is not self.field:
                raise FieldMismatchError("series over distinct fields cannot be combined")
            if other.precision != self.precision:
                raise PrecisionError(
                    f"precision mismatch: {self.precision} vs {other.precision};"
                    " re-truncate explicitly with with_precision"
                )
            return other
        if isinstance(other, (int, Fraction, FieldElement)) and not isinstance(other, bool):
            return TruncatedSeries.constant(self.field, other, self.precision)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        reduce = self.field.reduce
        return TruncatedSeries(
            self.field, tuple(reduce(a + b) for a, b in zip(self.coeffs, rhs.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        reduce = self.field.reduce
        return TruncatedSeries(
            self.field, tuple(reduce(a - b) for a, b in zip(self.coeffs, rhs.coeffs))
        )

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self):
        reduce = self.field.reduce
        return TruncatedSeries(self.field, tuple(reduce(-a) for a in self.coeffs))

    def __mul__(self, other):
        field = self.field
        reduce = field.reduce
        if isinstance(other, (int, Fraction, FieldElement)) and not isinstance(other, bool):
            lam = field.element(other).value
            return TruncatedSeries(field, tuple(reduce(lam * c) for c in self.coeffs))
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = self.precision
        out = [field.zero.value] * n
        nonzero_b = [(j, b) for j, b in enumerate(rhs.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in nonzero_b:
                if i + j >= n:
                    break
                out[i + j] += a * b
        return TruncatedSeries(field, tuple(map(reduce, out)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.invert()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.invert()

    def invert(self) -> "TruncatedSeries":
        """The two-sided inverse; requires a unit (nonzero constant term)."""
        a0 = self.coeffs[0]
        if not a0:
            raise NonUnitError("series with zero constant term has no inverse")
        field = self.field
        reduce = field.reduce
        zero = field.zero.value
        inv0 = field.inv(a0)
        neg_inv0 = reduce(-inv0)
        nonzero = [(j, a) for j, a in enumerate(self.coeffs) if j and a]
        out = [inv0]
        for k in range(1, self.precision):
            acc = zero
            for j, a in nonzero:
                if j > k:
                    break
                acc += a * out[k - j]
            out.append(reduce(neg_inv0 * acc))
        return TruncatedSeries(field, tuple(out))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.invert() ** (-exponent)
        if exponent == 0:
            return TruncatedSeries.one(self.field, self.precision)
        # left-to-right binary powering from the base: no product by one
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    # -- comparison / rendering ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.field is other.field
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.characteristic, self.coeffs))

    def __str__(self) -> str:
        """Textual form `c0 + c1*t + c2*t^2 + ...` with all N coefficients."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<{self} | {self.field!r}, N={self.precision}>"


def _require_charp_precision(series: TruncatedSeries, op: str) -> None:
    p = series.field.characteristic
    if p != 0 and series.precision > p:
        raise PrecisionError(
            f"{op} at precision {series.precision} over GF({p}) would divide by {p};"
            f" precision must not exceed {p}"
        )


def log_circ(a: TruncatedSeries) -> TruncatedSeries:
    """log of a unit divided by its constant term; kills constants.

    log_circ(a) is the integral of a'/a with zero constant term, truncated at
    the precision of a.  Satisfies log_circ(ab) = log_circ(a) + log_circ(b).
    """
    _require_charp_precision(a, "log_circ")
    if not a.is_unit:
        raise NonUnitError("log_circ requires a unit (nonzero constant term)")
    field = a.field
    reduce, inv = field.reduce, field.inv
    # a' is exact through degree N - 2, which is all the integral reads
    ratio = (a.derivative().with_precision(a.precision) * a.invert()).coeffs
    return TruncatedSeries(
        field,
        (field.zero.value,) + tuple(reduce(ratio[k - 1] * inv(k)) for k in range(1, a.precision)),
    )


def exp_t(u: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term; inverse to log_circ.

    exp_t(log_circ(a)) * a(0) = a and log_circ(c * exp_t(u)) = u exactly.
    """
    _require_charp_precision(u, "exp_t")
    if u.coeffs[0]:
        raise ValueError("exp_t requires zero constant term")
    field = u.field
    reduce, inv = field.reduce, field.inv
    zero = field.zero.value
    # (j, j * u_j) for the nonzero terms of u'
    nonzero = [(j, d) for j, d in enumerate(u.derivative().coeffs, 1) if d]
    out = [field.one.value]
    for k in range(1, u.precision):
        acc = zero
        for j, d in nonzero:
            if j > k:
                break
            acc += d * out[k - j]
        out.append(reduce(acc * inv(k)))
    return TruncatedSeries(field, tuple(out))


def random_series(
    field: Field,
    precision: int,
    rng: random.Random,
    height_bound: int = 10,
) -> TruncatedSeries:
    """A series with independently sampled coefficients; deterministic given rng."""
    return TruncatedSeries(
        field, tuple(field.random_element(rng, height_bound).value for _ in range(precision))
    )
