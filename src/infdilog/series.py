"""Truncated power series k[t]/(t^N) over an exact coefficient field.

A TruncatedSeries stores exactly N coefficients (the coefficient of t^i at
index i) and models a power series known through degree N - 1.  Arithmetic
requires equal field and precision; change precision explicitly with
with_precision, which zero-pads when growing (the canonical lift) and drops
coefficients when shrinking (the canonical projection).

Coefficients are stored as one vector: int numerators over a positive common
denominator, normalised by the field (gcd 1 with the denominator over QQ,
least residues over denominator 1 over GF(p)), so equal series have equal
vectors.  The field's vector kernels (fields.py) hold the arithmetic loops:
mul, add, invert, log_circ and exp_t.  TruncatedSeries checks shapes and
preconditions and only rescales numerators itself (scale, neg),
normalising through the field.  A scalar operand is what Field.scalar accepts
(fields.py states the rule): added or subtracted it touches coefficient 0
only, and dividing by it multiplies by its inverse, so 0 raises
ZeroDivisionError.  coeff and constant_term hand out FieldElements,
coeffs is the raw-value view for boundaries, and from_coeffs is the validating
constructor for arbitrary scalars.

The two composition patterns the identities need are provided as module
functions:

  log_circ(a) = log(a / a(0)) = integral of a'/a, from a L' = a':
                k a_0 L_k = k a_k - sum_{j<k} j L_j a_(k-j)
  exp_t(u)    = exp(u) for u(0) = 0, from E' = u'E: k E_k = sum_{j<=k} j u_j E_(k-j)

Both cost O(N^2) coefficient operations, are group homomorphisms between units
and the additive group t*k[t]/(t^N), and are mutually inverse after fixing the
constant term.  Over GF(p) they are defined only for precision N <= p: they
divide only by k <= N - 1 < p, so p never appears in a denominator.  Larger
precision is refused loudly rather than silently reduced.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from .fields import Field, FieldElement, FieldMismatchError, Raw, Scalar, Vector

__all__ = [
    "NonUnitError",
    "NotFlatError",
    "PrecisionError",
    "TruncatedSeries",
    "exp_t",
    "log_circ",
    "random_series",
]


class PrecisionError(ValueError):
    """Precision mismatch, out-of-range index, or a char-p precision violation."""


class NonUnitError(ValueError):
    """The series has zero constant term where a unit is required."""


class NotFlatError(ValueError):
    """The series has constant term 0 or 1 where a flat element is required."""


class TruncatedSeries:
    """An element of k[t]/(t^N): an immutable coefficient vector plus precision.

    `nums` holds one int numerator per coefficient (N = len(nums)) over the
    common denominator `den`, in the field's normalised form.  The constructor
    takes canonical raw values of `field` and trusts them; use from_coeffs to
    convert and validate arbitrary scalars.  `coeffs` is the raw-value view,
    for boundaries only: no series operation reads it.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: Field, coeffs: tuple[Raw, ...]) -> None:
        if not coeffs:
            raise PrecisionError("precision must be at least 1")
        self.field = field
        self.nums, self.den = field.vector(coeffs)

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
        return len(self.nums)

    @property
    def coeffs(self) -> tuple[Raw, ...]:
        """The coefficients as canonical raw values (Fractions over QQ)."""
        quotient, den = self.field.quotient, self.den
        return tuple(quotient(x, den) for x in self.nums)

    def coeff(self, a: int) -> FieldElement:
        """The coefficient of t^a."""
        if not 0 <= a < len(self.nums):
            raise PrecisionError(f"coefficient index {a} out of range for precision {self.precision}")
        return FieldElement(self.field, self.field.quotient(self.nums[a], self.den))

    def constant_term(self) -> FieldElement:
        return FieldElement(self.field, self.field.quotient(self.nums[0], self.den))

    def truncate_below(self, a: int) -> "TruncatedSeries":
        """Zero every coefficient of t^a and above, keeping the precision."""
        if not 0 <= a <= self.precision:
            raise PrecisionError(f"truncation index {a} out of range for precision {self.precision}")
        return _series(self.field, self.field.normalize(self.nums[:a] + (0,) * (self.precision - a), self.den))

    def with_precision(self, precision: int) -> "TruncatedSeries":
        """Zero-pad (the canonical lift) or drop coefficients (the projection)."""
        if precision < 1:
            raise PrecisionError("precision must be at least 1")
        if precision <= self.precision:
            return _series(self.field, self.field.normalize(self.nums[:precision], self.den))
        return _series(self.field, (self.nums + (0,) * (precision - self.precision), self.den))

    def scale(self, lam: Scalar) -> "TruncatedSeries":
        """The scaling action f(t) -> f(lam * t): multiplies coeff i by lam^i."""
        (ln,), ld = self.field.vector((self.field.element(lam).value,))
        if not ln:
            raise ValueError("scaling by 0 is not invertible and is not allowed")
        top = self.precision - 1
        nums = [x * ln ** i * ld ** (top - i) for i, x in enumerate(self.nums)]
        return _series(self.field, self.field.normalize(nums, self.den * ld ** top))

    @property
    def is_unit(self) -> bool:
        return bool(self.nums[0])

    @property
    def is_flat(self) -> bool:
        """Whether a(1 - a) is a unit, i.e. a(0) is neither 0 nor 1."""
        c = self.nums[0]
        return bool(c) and c != self.den

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- ring arithmetic -----------------------------------------------------

    def _check(self, other: "TruncatedSeries") -> None:
        """Refuse a series operand of another field or precision."""
        if other.field is not self.field:
            raise FieldMismatchError("series over distinct fields cannot be combined")
        if len(other.nums) != len(self.nums):
            raise PrecisionError(
                f"precision mismatch: {self.precision} vs {other.precision};"
                " re-truncate explicitly with with_precision"
            )

    def _scalar(self, other) -> Vector | None:
        """The one-coefficient vector of a scalar operand, else None; an int is used
        as it is (normalize reduces the result mod p)."""
        raw = other if type(other) is int else self.field.scalar(other)
        return None if raw is None else self.field.vector((raw,))

    def _plus(self, other, sign: int, own: int = 1):
        """own * self + sign * other; own = -1 only for scalar - series, and a scalar touches coeff 0 only."""
        field = self.field
        if own == 1 and isinstance(other, TruncatedSeries):
            self._check(other)
            return _series(field, field.add(self.nums, self.den, other.nums, other.den, sign))
        scalar = self._scalar(other)
        if scalar is None:
            return NotImplemented
        (cn,), cd = scalar
        nums = [own * cd * x for x in self.nums]
        nums[0] += sign * cn * self.den
        return _series(field, field.normalize(nums, self.den * cd))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return self._plus(other, 1, -1)

    def __neg__(self):
        return _series(self.field, self.field.normalize([-x for x in self.nums], self.den))

    def __mul__(self, other):
        field = self.field
        if isinstance(other, TruncatedSeries):
            self._check(other)
            return _series(field, field.mul(self.nums, self.den, other.nums, other.den))
        scalar = self._scalar(other)
        if scalar is None:
            return NotImplemented
        (cn,), cd = scalar
        return _series(field, field.normalize([cn * x for x in self.nums], self.den * cd))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.invert()
        raw = self.field.scalar(other)
        if raw is None:
            return NotImplemented
        if not raw:
            raise ZeroDivisionError(f"division of a series by 0 in {self.field!r}")
        return self * self.field.inv(raw)

    def __rtruediv__(self, other):
        raw = self.field.scalar(other)
        return NotImplemented if raw is None else self.invert() * raw

    def invert(self) -> "TruncatedSeries":
        """The two-sided inverse; requires a unit (nonzero constant term)."""
        if not self.nums[0]:
            raise NonUnitError("series with zero constant term has no inverse")
        return _series(self.field, self.field.invert(self.nums, self.den))

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
        return self.field is other.field and self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.field.characteristic, self.nums, self.den))

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


def _series(field: Field, vector: Vector) -> TruncatedSeries:
    """A series from a normalised vector, without the constructor's conversion."""
    series = object.__new__(TruncatedSeries)
    series.field = field
    series.nums, series.den = vector
    return series


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
    One field kernel, one recurrence: no intermediate series, at most one normalisation.
    """
    _require_charp_precision(a, "log_circ")
    if not a.is_unit:
        raise NonUnitError("log_circ requires a unit (nonzero constant term)")
    return _series(a.field, a.field.log_circ(a.nums, a.den))


def exp_t(u: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term; inverse to log_circ.

    exp_t(log_circ(a)) * a(0) = a and log_circ(c * exp_t(u)) = u exactly.
    """
    _require_charp_precision(u, "exp_t")
    if u.nums[0]:
        raise ValueError("exp_t requires zero constant term")
    return _series(u.field, u.field.exp_t(u.nums, u.den))


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
