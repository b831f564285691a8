"""Truncated power series k[t]/(t^N) over an exact coefficient field.

A TruncatedSeries stores exactly N coefficients (the coefficient of t^i at
index i) and models a power series known through degree N - 1.  Arithmetic
requires equal field and precision; change precision explicitly with
with_precision, which zero-pads when growing (the canonical lift) and drops
coefficients when shrinking (the canonical projection).

The two composition patterns the identities need are provided as module
functions:

  log_circ(a) = log(a / a(0)) = integral of a'/a
  exp_t(u)    = exp(u) for u(0) = 0, from E' = u'E: k E_k = sum_{j<=k} j u_j E_(k-j)

Both cost O(N^2) field operations, are group homomorphisms between units and
the additive group t*k[t]/(t^N), and are mutually inverse after fixing the
constant term.  Over GF(p) they are defined only for precision N <= p: they
divide only by k <= N - 1 < p, so p never appears in a denominator.  Larger
precision is refused loudly rather than silently reduced.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Union

from .fields import Field, FieldElement, FieldMismatchError

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
    """An element of k[t]/(t^N): immutable coefficient vector plus precision."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[FieldElement, ...]) -> None:
        if not coeffs:
            raise PrecisionError("precision must be at least 1")
        self.field = field
        self.coeffs = coeffs

    # -- construction --------------------------------------------------------

    @classmethod
    def from_coeffs(cls, field: Field, values: Iterable[Scalar], precision: int | None = None) -> "TruncatedSeries":
        """Build from low-degree-first coefficients, zero-padded to precision."""
        coeffs = [field.element(v) for v in values]
        if precision is None:
            precision = len(coeffs)
        if precision < 1:
            raise PrecisionError("precision must be at least 1")
        if len(coeffs) > precision:
            raise PrecisionError(f"{len(coeffs)} coefficients exceed precision {precision}")
        coeffs.extend([field.zero] * (precision - len(coeffs)))
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
        return self.coeffs[a]

    def constant_term(self) -> FieldElement:
        return self.coeffs[0]

    def truncate_below(self, a: int) -> "TruncatedSeries":
        """Zero every coefficient of t^a and above, keeping the precision."""
        if not 0 <= a <= self.precision:
            raise PrecisionError(f"truncation index {a} out of range for precision {self.precision}")
        zero = self.field.zero
        return TruncatedSeries(self.field, self.coeffs[:a] + (zero,) * (self.precision - a))

    def with_precision(self, precision: int) -> "TruncatedSeries":
        """Zero-pad (the canonical lift) or drop coefficients (the projection)."""
        if precision < 1:
            raise PrecisionError("precision must be at least 1")
        if precision <= self.precision:
            return TruncatedSeries(self.field, self.coeffs[:precision])
        pad = (self.field.zero,) * (precision - self.precision)
        return TruncatedSeries(self.field, self.coeffs + pad)

    def derivative(self) -> "TruncatedSeries":
        """Formal d/dt; the result is exact through degree N - 2."""
        if self.precision == 1:
            return TruncatedSeries.zero(self.field, 1)
        coeffs = tuple(
            self.field.element(i) * c for i, c in enumerate(self.coeffs) if i >= 1
        )
        return TruncatedSeries(self.field, coeffs)

    def scale(self, lam: Scalar) -> "TruncatedSeries":
        """The scaling action f(t) -> f(lam * t): multiplies coeff i by lam^i."""
        lam = self.field.element(lam)
        if not lam:
            raise ValueError("scaling by 0 is not invertible and is not allowed")
        out = []
        power = self.field.one
        for c in self.coeffs:
            out.append(power * c)
            power = power * lam
        return TruncatedSeries(self.field, tuple(out))

    @property
    def is_unit(self) -> bool:
        return bool(self.coeffs[0])

    @property
    def is_flat(self) -> bool:
        """Whether a(1 - a) is a unit, i.e. a(0) is neither 0 nor 1."""
        c = self.coeffs[0]
        return bool(c) and c != self.field.one

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
            return TruncatedSeries.constant(self.field, self.field.element(other), self.precision)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return TruncatedSeries(self.field, tuple(a + b for a, b in zip(self.coeffs, rhs.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return TruncatedSeries(self.field, tuple(a - b for a, b in zip(self.coeffs, rhs.coeffs)))

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self):
        return TruncatedSeries(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)) and not isinstance(other, bool):
            lam = self.field.element(other)
            return TruncatedSeries(self.field, tuple(lam * c for c in self.coeffs))
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n = self.precision
        out = [self.field.zero] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n - i):
                b = rhs.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.field, tuple(out))

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
        inv0 = a0.inverse()
        out = [inv0]
        for k in range(1, self.precision):
            acc = self.field.zero
            for j in range(1, k + 1):
                aj = self.coeffs[j]
                if aj:
                    acc = acc + aj * out[k - j]
            out.append(-(inv0 * acc))
        return TruncatedSeries(self.field, tuple(out))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.invert() ** (-exponent)
        result = TruncatedSeries.one(self.field, self.precision)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
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
    if not a.constant_term():
        raise NonUnitError("log_circ requires a unit (nonzero constant term)")
    # a' is exact through degree N - 2, which is all the integral reads
    ratio = (a.derivative().with_precision(a.precision) * a.invert()).coeffs
    return TruncatedSeries(
        a.field, (a.field.zero,) + tuple(ratio[k - 1] / k for k in range(1, a.precision))
    )


def exp_t(u: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term; inverse to log_circ.

    exp_t(log_circ(a)) * a(0) = a and log_circ(c * exp_t(u)) = u exactly.
    """
    _require_charp_precision(u, "exp_t")
    if u.constant_term():
        raise ValueError("exp_t requires zero constant term")
    du = u.derivative().coeffs  # du[j - 1] = j * u_j
    out = [u.field.one]
    for k in range(1, u.precision):
        acc = u.field.zero
        for j in range(1, k + 1):
            if du[j - 1]:
                acc = acc + du[j - 1] * out[k - j]
        out.append(acc / k)
    return TruncatedSeries(u.field, tuple(out))


def random_series(
    field: Field,
    precision: int,
    rng: random.Random,
    height_bound: int = 10,
) -> TruncatedSeries:
    """A series with independently sampled coefficients; deterministic given rng."""
    return TruncatedSeries(
        field, tuple(field.random_element(rng, height_bound) for _ in range(precision))
    )
