"""Exact coefficient fields: arbitrary-precision rationals and odd prime fields.

A scalar has a raw canonical form: a fractions.Fraction over QQ (always
reduced, denominator positive) and a least residue int in [0, p) over GF(p).
Each field has one pair of raw scalar operations: reduce(raw) brings an int, a
Fraction or a raw sum or product to canonical form, and inv(raw) inverts a
nonzero canonical value.  Only FieldElement powers bypass them, with a
three-argument pow over GF(p), so that exponents as large as p stay cheap.
Over GF(p), inv reads a per-field memo keyed by the least residue, so
pow(x, p - 2, p) runs once per residue (log_circ and exp_t read 1/k there),
and memos[fn] does the same for any scalar function fn(field, x) of a residue
(dilog's pounds1 and li2p weight); a memo stores no key past _MEMO_CAP.

A series' coefficients are a vector: int numerators over one positive common
denominator, normalised by the field (gcd(den, *nums) = 1 over QQ, so the form
is unique; least residues over den = 1 over GF(p)).  The field is the one place
that turns a vector into arithmetic: add and every QQ product are shared integer
loops that normalise once per result.  Over GF(p), normalize, mul and invert at
N = 2 (the dual numbers of every char-p check) are closed forms, and any other
product is a Kronecker substitution: each least-residue vector is packed into
one int of N struct slots, 2, 4 or 8 bytes wide, the narrowest with N (p - 1)^2
< 2^(8 width), so no coefficient of the product carries into the next slot; the
two ints are multiplied once and the low N slots read back mod p.  Where 8-byte
slots are too narrow (p above about 2^32 / sqrt(N)) the shared loop stays.
invert, log_circ and exp_t are direct loops per field: fraction-free integer
recurrences over QQ, residue loops over GF(p) reducing each inner sum once.

At the public boundary a scalar is a FieldElement: a raw value tagged with its
field.  Field.scalar is the one rule for operands: an exact scalar (an int
that is not a bool, a Fraction, or an element of the same field) becomes its
canonical raw value; anything else (a bool, a float, None, a series) is not a
scalar, so Field.element raises TypeError and the FieldElement and series
operators return NotImplemented.  Elements of distinct fields never combine:
any attempt raises FieldMismatchError.  All operations are pure and elements
are immutable, so they can be shared freely.  An element hashes as its raw
value, as the int or Fraction it equals does, except an int outside [0, p):
it equals its GF(p) residue (10 == GF(7).element(3)) but hashes apart.
"""

from __future__ import annotations

import functools
import math
import random
import struct
from fractions import Fraction

__all__ = [
    "Field",
    "FieldElement",
    "FieldMismatchError",
    "GF",
    "PrimeField",
    "QQ",
    "RationalField",
]

# A canonical raw value: a Fraction over QQ, a least residue in [0, p) over GF(p).
Raw = int | Fraction
# A coefficient vector: int numerators over one positive common denominator.
Vector = tuple[tuple[int, ...], int]

_ONE = Fraction(1)

# p must fit in a machine word.  This bound only validates input: the char-p
# series caps live at precision p, so huge primes are useless here.
_WORD_SIZE_LIMIT = 1 << 63

# The most keys a residue memo stores; every prime the checks enumerate is far below it.
_MEMO_CAP = 1 << 16

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _slot_struct(n: int, p: int) -> struct.Struct | None:
    """n little-endian slots of the narrowest width above n (p - 1)^2, which bounds the low n coefficients
    of a product of two least-residue vectors, so no slot carries into the next; None if 8 bytes do not."""
    for width, code in ((2, "H"), (4, "I"), (8, "Q")):
        if n * (p - 1) ** 2 < 1 << 8 * width:
            return struct.Struct(f"<{n}{code}")
    return None


class _Memo(dict):
    """fn's value at each key, computed on its first lookup and stored below _MEMO_CAP keys."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __missing__(self, key):
        value = self.fn(key)
        if len(self) < _MEMO_CAP:
            self[key] = value
        return value


class FieldMismatchError(ValueError):
    """An operation mixed elements of two distinct fields."""


class Field:
    """Common interface of the two coefficient fields.

    Each field implements reduce and inv on raw scalars and the vector side on
    int numerator tuples `a` over a denominator `da`:

      vector(raws)          the normalised vector of canonical raw values (of any ints, and ints only, over GF(p))
      quotient(num, den)    the canonical raw value of num / den
      normalize(nums, den)  the normalised vector of any ints over den != 0
      invert(a, da)         the inverse of a unit, truncated at len(a)
      log_circ(a, da)       log(a / a_0) of a unit, from k a_0 L_k = k a_k - sum_{j<k} j L_j a_(k-j);
                            da is ignored, since log_circ kills constants
      exp_t(u, du)          exp of u with u_0 = 0, from k E_k = sum_j j u_j E_(k-j)

    mul and add are shared: plain integer loops, normalised once; GF(p) mul is a closed form at N = 2
    and a packed product (one int multiply over machine-word slots) wherever 8-byte slots are wide enough.
    """

    characteristic: int

    def scalar(self, value) -> Raw | None:
        """The canonical raw value of an exact scalar (an int but not a bool, a Fraction,
        an element of this field), else None; FieldMismatchError for another field's element."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise FieldMismatchError(f"cannot combine element of {value.field!r} with {self!r}")
            return value.value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return self.reduce(value)
        return None

    def element(self, value: Scalar) -> FieldElement:
        """The element an exact scalar names; TypeError for anything that is not one."""
        raw = self.scalar(value)
        if raw is None:
            raise TypeError(f"{self!r} takes an int, a Fraction or a FieldElement, got {value!r}")
        return FieldElement(self, raw)

    def mul(self, a: tuple[int, ...], da: int, b: tuple[int, ...], db: int) -> Vector:
        """The product truncated at len(a): an integer convolution over da * db."""
        n = len(a)
        out = [0] * n
        nonzero_b = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in nonzero_b:
                if i + j >= n:
                    break
                out[i + j] += x * y
        return self.normalize(out, da * db)

    def add(self, a: tuple[int, ...], da: int, b: tuple[int, ...], db: int, sign: int = 1) -> Vector:
        """a/da + sign * b/db over the least common denominator."""
        g = math.gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        return self.normalize([x * fa + y * fb for x, y in zip(a, b)], da * (db // g))


class RationalField(Field):
    """The field of rational numbers; use the module-level singleton QQ."""

    characteristic = 0

    def __init__(self) -> None:
        self.zero = FieldElement(self, Fraction(0))
        self.one = FieldElement(self, Fraction(1))

    def reduce(self, raw: Raw) -> Raw:
        return raw if isinstance(raw, Fraction) else Fraction(raw)

    def inv(self, raw: Raw) -> Raw:
        return _ONE / raw

    def vector(self, raws) -> Vector:
        try:
            den = math.lcm(*(c.denominator for c in raws))
        except AttributeError:  # not an int or a Fraction; GF(p) refuses the same raws with TypeError
            raise TypeError(f"QQ takes int or Fraction raws, got {raws!r}") from None
        return tuple([c.numerator * (den // c.denominator) for c in raws]), den

    def quotient(self, num: int, den: int) -> Raw:
        return Fraction(num, den)

    def normalize(self, nums, den: int) -> Vector:
        """Divide out gcd(den, *nums) and make den positive; the zero vector gets den 1."""
        if den < 0:
            nums, den = [-x for x in nums], -den
        g = math.gcd(den, *nums)
        if g == 1:
            return tuple(nums), den
        return tuple([x // g for x in nums]), den // g

    def invert(self, a: tuple[int, ...], da: int) -> Vector:
        """Fraction-free: 1/a = da * (e_k a0^(N-1-k))_k / a0^N, e_k = -sum_j a_j a0^(j-1) e_(k-j)."""
        n, a0 = len(a), a[0]
        weights = [(j, x * a0 ** (j - 1)) for j, x in enumerate(a) if j and x]
        e = [1]
        for k in range(1, n):
            acc = 0
            for j, w in weights:
                if j > k:
                    break
                acc -= w * e[k - j]
            e.append(acc)
        return self.normalize([da * x * a0 ** (n - 1 - k) for k, x in enumerate(e)], a0 ** n)

    def log_circ(self, a: tuple[int, ...], da: int) -> Vector:
        """Fraction-free: L_k = H_k / (k a0^k), H_k = k a_k a0^(k-1) - sum_j a_j a0^(j-1) H_(k-j)."""
        n, a0, m = len(a), a[0], math.lcm(*range(1, len(a)))
        scaled = [x * a0 ** (j - 1) if j else 0 for j, x in enumerate(a)]
        h = [0]
        for k in range(1, n):
            acc = k * scaled[k]
            for j in range(1, k):  # H_0 = 0
                acc -= scaled[j] * h[k - j]
            h.append(acc)
        pw = 1
        for k in range(n - 1, 0, -1):
            h[k], pw = h[k] * (m // k) * pw, pw * a0
        return self.normalize(h, pw * m)  # over a0^(N-1) lcm(1..N-1)

    def exp_t(self, u: tuple[int, ...], du: int) -> Vector:
        """Fraction-free: E_k = F_k / c^k with c = du * lcm(1..N-1), so every F_k is an int."""
        n, m = len(u), math.lcm(*range(1, len(u)))
        c = du * m
        weights = [(j, j * x * c ** (j - 1)) for j, x in enumerate(u) if x]
        f = [1]
        for k in range(1, n):
            acc = 0
            for j, w in weights:
                if j > k:
                    break
                acc += w * f[k - j]
            f.append(acc * (m // k))
        return self.normalize([x * c ** (n - 1 - k) for k, x in enumerate(f)], c ** (n - 1))

    def random_element(self, rng: random.Random, height_bound: int = 10) -> FieldElement:
        """Numerator uniform in [-height_bound, height_bound], denominator in [1, height_bound]."""
        if height_bound < 1:
            raise ValueError("height_bound must be >= 1")
        num = rng.randint(-height_bound, height_bound)
        den = rng.randint(1, height_bound)
        return FieldElement(self, Fraction(num, den))

    def __repr__(self) -> str:
        return "QQ"


class PrimeField(Field):
    """The prime field of odd characteristic p; use GF(p) to construct."""

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or p < 3:
            raise ValueError(f"prime field characteristic must be an odd prime >= 3, got {p}")
        if p >= _WORD_SIZE_LIMIT:
            raise ValueError(f"characteristic must fit in a machine word, got {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        self._inv = _Memo(lambda x: pow(x, p - 2, p))
        self._slots = _Memo(lambda n: _slot_struct(n, p))
        self.memos = _Memo(lambda fn: _Memo(lambda x: fn(self, x)))

    def reduce(self, raw: Raw) -> Raw:
        if isinstance(raw, int):
            return raw % self.p
        den = raw.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {raw} vanishes in GF({self.p})")
        return raw.numerator * self.inv(den) % self.p

    def inv(self, raw: Raw) -> Raw:
        return self._inv[raw]

    def quotient(self, num: int, den: int) -> Raw:
        return num % self.p

    # Every vector over GF(p) has den 1 (no kernel makes another), so den is ignored.  vector reduces as normalize
    # does (a raw outside [0, p) would compare unequal and carry between packed slots); its | 0 refuses a non-int
    # raw (% keeps a Fraction).  At N = 2 normalize, mul and invert are closed forms; other products use _slots[N].

    def normalize(self, nums, den: int = 1) -> Vector:
        p = self.p
        if len(nums) == 2:
            return (nums[0] % p, nums[1] % p), 1
        return tuple([x % p for x in nums]), 1

    def vector(self, raws) -> Vector:
        p = self.p
        if len(raws) == 2:
            return (raws[0] % p | 0, raws[1] % p | 0), 1
        return tuple([x % p | 0 for x in raws]), 1

    def mul(self, a: tuple[int, ...], da: int, b: tuple[int, ...], db: int) -> Vector:
        p = self.p
        if len(a) == 2:
            return (a[0] * b[0] % p, (a[0] * b[1] + a[1] * b[0]) % p), 1
        slots = self._slots[len(a)]
        if slots is None:
            return super().mul(a, da, b, db)
        prod = int.from_bytes(slots.pack(*a), "little") * int.from_bytes(slots.pack(*b), "little")
        return tuple([x % p for x in slots.unpack_from(prod.to_bytes(2 * slots.size, "little"))]), 1

    def invert(self, a: tuple[int, ...], da: int) -> Vector:
        p = self.p
        inv0 = self.inv(a[0])
        if len(a) == 2:
            return (inv0, -a[1] * inv0 * inv0 % p), 1
        e = [inv0]
        for k in range(1, len(a)):
            acc = 0
            for j in range(1, k + 1):
                acc -= a[j] * e[k - j]
            e.append(inv0 * acc % p)
        return tuple(e), 1

    def log_circ(self, a: tuple[int, ...], da: int) -> Vector:
        """L_k = M_k / k, a0 M_k = k a_k - sum_j a_j M_(k-j): the coefficients of t L' = t a'/a."""
        p, inv, inv0 = self.p, self._inv, self.inv(a[0])
        m, out = [0], [0]
        for k in range(1, len(a)):
            acc = k * a[k]
            for j in range(1, k):  # M_0 = 0
                acc -= a[j] * m[k - j]
            m.append(acc * inv0 % p)
            out.append(m[k] * inv[k] % p)
        return tuple(out), 1

    def exp_t(self, u: tuple[int, ...], du: int) -> Vector:
        p, inv, w = self.p, self._inv, [j * x for j, x in enumerate(u)]
        e = [1]
        for k in range(1, len(u)):
            acc = 0
            for j in range(1, k + 1):
                acc += w[j] * e[k - j]
            e.append(acc * inv[k] % p)
        return tuple(e), 1

    def random_element(self, rng: random.Random, height_bound: int = 10) -> FieldElement:
        """Uniform least residue; height_bound is accepted for interface parity."""
        return FieldElement(self, rng.randrange(self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


class FieldElement:
    """An immutable element of QQ or GF(p), in canonical form."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value) -> None:
        self.field = field
        self.value = value

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        raw = self.field.scalar(other)
        return NotImplemented if raw is None else FieldElement(self.field, self.field.reduce(self.value + raw))

    __radd__ = __add__

    def __sub__(self, other):
        raw = self.field.scalar(other)
        return NotImplemented if raw is None else FieldElement(self.field, self.field.reduce(self.value - raw))

    def __rsub__(self, other):
        raw = self.field.scalar(other)
        return NotImplemented if raw is None else FieldElement(self.field, self.field.reduce(raw - self.value))

    def __mul__(self, other):
        raw = self.field.scalar(other)
        return NotImplemented if raw is None else FieldElement(self.field, self.field.reduce(self.value * raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        raw = self.field.scalar(other)
        return NotImplemented if raw is None else self * FieldElement(self.field, raw).inverse()

    def __rtruediv__(self, other):
        raw = self.field.scalar(other)
        return NotImplemented if raw is None else self.inverse() * raw

    def __neg__(self):
        field = self.field
        return FieldElement(field, field.reduce(-self.value))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.field.characteristic == 0:
            return FieldElement(self.field, self.value ** exponent)
        return FieldElement(self.field, pow(self.value, exponent, self.field.p))

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError(f"0 has no inverse in {self.field!r}")
        return FieldElement(self.field, self.field.inv(self.value))

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            raw = self.field.scalar(other)
        except FieldMismatchError:
            return False
        if raw is None:
            return NotImplemented
        return self.value == raw

    def __hash__(self) -> int:
        return hash(self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"{self.value} in {self.field!r}"


Scalar = FieldElement | int | Fraction

QQ = RationalField()


@functools.cache
def GF(p: int) -> PrimeField:
    """Return the (cached) prime field with p elements, p an odd prime."""
    return PrimeField(p)
