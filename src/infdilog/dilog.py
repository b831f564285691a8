"""Infinitesimal dilogarithms of modulus m and weight w, and the char-p pair.

Characteristic 0 and p >= w.  For 1 < m < w < 2m the dilogarithm li_{m,w} acts
on flat elements of k[t]/(t^m), k = QQ or GF(p) with p >= w: the formula divides
only by integers below w and by units, so over GF(p) it reduces the QQ function
at p-integral points (w > p raises log_circ's PrecisionError).  With a = s e^u,
s = a(0) and u = log_circ(a),

    li_{m,w}(s e^u) = t_{w-1}( log_circ(1 - s e^(u|_m)) * (du/dt)|_(w-m) )

where q|_a truncates to degrees below a and t_a extracts a coefficient.  The
value depends only on a mod t^m.  The same number is computed from any lift
to precision N >= w through the Bloch differential:

    lift value = sum_{1 <= i <= w-m} i * (ell_{w-i} ^ ell_i)(delta(lift)).

Closed forms are available for (m, w) in {(2,3), (3,4), (3,5)} and serve as
independent oracles for the direct formula.

Characteristic p (odd).  The 1 1/2 logarithm pounds1(s) = sum_{1<=i<p} s^i / i
equals (1 - s^p - (1-s)^p) / p mod p on an integer lift of s (Kontsevich, "The
1 1/2-logarithm", appendix to Elbaz-Vincent and Gangl, "On poly(ana)logs I",
Compositio Math. 130, 2002); the closed form is the one evaluated, in O(log p).
The weight-two map on dual numbers is li2p(s + at) = (a / (s(1-s)))^p *
pounds1(s) = a * W_p(s) with W_p(s) = pounds1(s) / (s(1-s)), since x^p = x in
GF(p), checked against the lift expression (1/2) * sum_{1<=i<p} i *
(ell_{p-i} ^ ell_i) applied to delta of a lift at precision exactly p.  W_p is
read from a per-field memo, PrimeField.memos, keyed by the least residue of s
and stored below _MEMO_CAP keys; pounds1 is evaluated on every call.
"""

from __future__ import annotations

from .bloch import _log_rows, _pair_sums
from .fields import FieldElement
from .series import (
    NotFlatError,
    PrecisionError,
    TruncatedSeries,
    _require_charp_precision,
    exp_t,
    log_circ,
)

__all__ = [
    "CLOSED_FORM_PARAMS",
    "li2p",
    "li2p_via_lift",
    "li_closed_form",
    "li_direct",
    "li_via_lift",
    "pounds1",
    "validate_modulus_weight",
]

CLOSED_FORM_PARAMS = ((2, 3), (3, 4), (3, 5))


def validate_modulus_weight(m: int, w: int) -> None:
    """Enforce 1 < m < w < 2m."""
    if not (isinstance(m, int) and isinstance(w, int)):
        raise TypeError("modulus and weight must be integers")
    if not 1 < m < w < 2 * m:
        raise ValueError(f"modulus/weight must satisfy 1 < m < w < 2m, got m={m}, w={w}")


def _require_flat(a: TruncatedSeries, what: str) -> None:
    if not a.is_flat:
        raise NotFlatError(f"{what} requires a flat argument, got constant term {a.constant_term()}")


def li_direct(m: int, w: int, a: TruncatedSeries) -> FieldElement:
    """Evaluate li_{m,w} by the defining formula at internal precision w.

    The argument is read modulo t^m (it needs m coefficients): li factors
    through k[t]/(t^m), and u = log_circ(a mod t^m) zero-padded to precision w
    is u|_m, as coefficient k of log_circ reads a_0 .. a_k only.  Over GF(p)
    it needs w <= p; a larger w raises log_circ's PrecisionError.
    """
    validate_modulus_weight(m, w)
    if a.precision < m:
        raise PrecisionError(f"argument needs at least {m} coefficients, has {a.precision}")
    _require_flat(a, "li_direct")

    u = log_circ(a.with_precision(m)).with_precision(w)
    _require_charp_precision(u, "log_circ")  # the precision-w log that lg takes, refused before exp_t
    lg = log_circ(1 - a.constant_term() * exp_t(u))
    # t_(w-1)(lg * du), du = (du/dt)|_(w-m) = sum_(j<w-m) (j+1) u_(j+1) t^j: an O(w) sum
    num = sum((j + 1) * u.nums[j + 1] * lg.nums[w - 1 - j] for j in range(w - m))
    return FieldElement(a.field, a.field.quotient(num, u.den * lg.den))


def li_via_lift(m: int, w: int, lift: TruncatedSeries) -> FieldElement:
    """Evaluate li_{m,w} of (lift mod t^m) through the Bloch differential.

    The value does not depend on the lift coefficients in degrees m and above.
    Over GF(p) the lift precision must not exceed p (PrecisionError), so w <= p.
    """
    validate_modulus_weight(m, w)
    if lift.precision < w:
        raise PrecisionError(f"lift needs precision >= {w}, has {lift.precision}")
    _require_flat(lift, "li_via_lift")
    return _lift_sum(lift, w, w - m)


def _lift_sum(lift: TruncatedSeries, top: int, count: int) -> FieldElement:
    """sum_{1 <= i <= count} i * (ell_{top-i} ^ ell_i)(delta(lift)): one pass, one field value.
    Callers refuse a non-flat lift, so both sides are units: one precondition check, one kernel call a side."""
    den, rows = _log_rows([(1, 1 - lift, lift)])
    sums = _pair_sums(rows, [(top - i, i) for i in range(1, count + 1)])
    return FieldElement(lift.field, lift.field.quotient(sum(i * s for i, s in enumerate(sums, 1)), den * den))


def li_closed_form(m: int, w: int, s: FieldElement, u1, u2=None) -> FieldElement:
    """The displayed rational closed forms for (2,3), (3,4) and (3,5).

    Arguments are the polynomial coefficients of s + u1*t (+ u2*t^2).
    """
    if (m, w) not in CLOSED_FORM_PARAMS:
        raise ValueError(f"no closed form for (m, w) = ({m}, {w})")
    field = s.field
    u1 = field.element(u1)
    if not s or s == field.one:
        raise NotFlatError("closed forms require s outside {0, 1}")
    if m == 2:
        return -(u1 ** 3) / (2 * s ** 2 * (s - 1) ** 2)
    if u2 is None:
        raise ValueError("modulus 3 closed forms need the t^2 coefficient u2")
    u2 = field.element(u2)
    sm1 = s - 1
    if w == 4:
        return (
            u1 ** 4 * (2 * s - 1) / (3 * sm1 ** 3 * s ** 3)
            - u1 ** 2 * u2 / (sm1 ** 2 * s ** 2)
        )
    return (
        u1 ** 5 * (sm1 ** 3 - s ** 3) / (4 * sm1 ** 4 * s ** 4)
        - u1 ** 5 / (3 * sm1 ** 3 * s ** 3)
        + u1 ** 3 * u2 * 5 * (2 * s - 1) / (3 * sm1 ** 3 * s ** 3)
        - u1 * u2 ** 2 * 5 / (2 * sm1 ** 2 * s ** 2)
    )


def _pounds1(field, x: int) -> int:
    """Kontsevich's (1 - x^p - (1-x)^p) / p mod p, as a least residue.

    Two powers mod p^2 and no inversion: exact since x^p + (1-x)^p = 1 mod p,
    and the same on any lift since (x + kp)^p = x^p mod p^2.
    """
    p, pp = field.p, field.p ** 2
    return (1 - pow(x, p, pp) - pow(1 - x, p, pp)) % pp // p


def _li2p_weight(field, s: int) -> int:
    """W_p(s) = pounds1(s) / (s(1 - s)), so that li2p(s + a t) = a W_p(s)."""
    return _pounds1(field, s) * field.inv(s * (1 - s) % field.p) % field.p


def pounds1(s: FieldElement) -> FieldElement:
    """The 1 1/2 logarithm over GF(p): sum of s^i / i for 1 <= i < p."""
    p = s.field.characteristic
    if p == 0:
        raise ValueError("pounds1 is defined over prime fields only")
    return FieldElement(s.field, _pounds1(s.field, s.value))


def li2p(y: TruncatedSeries) -> FieldElement:
    """The char-p weight-two dilogarithm on dual numbers s + a*t.

    li2p(y) = ybar^p * pounds1(s) with ybar = a / (s(1 - s)), which is
    a * W_p(s) since ybar^p = ybar in GF(p).  The argument is read modulo t^2,
    as the least residues s and a.
    """
    field = y.field
    if field.characteristic == 0:
        raise ValueError("li2p is defined over prime fields only")
    nums = y.nums
    if len(nums) < 2:
        raise PrecisionError("li2p needs the t coefficient; provide precision >= 2")
    if nums[0] in (0, 1):  # the least residues that are not flat
        _require_flat(y, "li2p")
    return FieldElement(field, nums[1] * field.memos[_li2p_weight][nums[0]] % field.p)


def li2p_via_lift(lift: TruncatedSeries) -> FieldElement:
    """Evaluate li2p of (lift mod t^2) through the Bloch differential.

    Requires precision exactly p: the functionals reach index p - 1 and the
    underlying log series is only p-integral through that degree.
    """
    p = lift.field.characteristic
    if p == 0:
        raise ValueError("li2p_via_lift is defined over prime fields only")
    if lift.precision != p:
        raise PrecisionError(f"lift precision must equal the characteristic {p}, got {lift.precision}")
    _require_flat(lift, "li2p_via_lift")
    return _lift_sum(lift, p, p - 1) / 2
