"""Base rings and their orderings.

The coefficient ring is either Q itself or Q[x] localized at a nonzero
polynomial s (s = 1 gives plain Q[x]). Orderings of the localized polynomial
ring are: evaluation at a real algebraic point where s does not vanish,
one-sided cuts at real algebraic points, and the two infinite ends.
Transcendental cuts never need a concrete representative here; interval cells
of step functions cover them. Q has its single ordering.

Sign evaluation is exact everywhere, including one-sided limits, which are
resolved by differentiating until a nonzero value appears.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import AdmissibilityError, ParseError, ValidationError
from .polynomials import (
    MAX_POWER_BITS,
    Polynomial,
    RationalFunction,
    format_polynomial,
    parse_polynomial,
)
from .realroots import AlgebraicReal, isolate_real_roots, sgn, sign_at

Element = Union[Fraction, RationalFunction]
Center = Union[Fraction, AlgebraicReal]


def _divides_power(p: Polynomial, s: Polynomial) -> bool:
    """Whether p divides s^k for some k, up to a nonzero constant."""
    if p.is_zero:
        return False
    p = p.monic()
    while p.degree > 0:
        g = p.gcd(s)
        if g.degree == 0:
            return False
        p = p.exact_div(g)
    return True


class Ring:
    """Coefficient ring descriptor: Q, or Q[x] with denominators dividing s^k."""

    __slots__ = ("_s",)

    def __init__(self, s: Polynomial | None):
        if s is not None:
            if s.is_zero:
                raise ValidationError("denominator polynomial must be nonzero")
            if s.degree == 0:
                s = Polynomial.one()
            else:
                s = s.monic()
        self._s = s

    @classmethod
    def rationals(cls) -> "Ring":
        return cls(None)

    @classmethod
    def polynomials(cls) -> "Ring":
        return cls(Polynomial.one())

    @classmethod
    def localized(cls, s: Polynomial) -> "Ring":
        return cls(s)

    @property
    def is_rational_base(self) -> bool:
        return self._s is None

    @property
    def s(self) -> Polynomial:
        if self._s is None:
            raise ValueError("base Q has no denominator polynomial")
        return self._s

    @property
    def zero(self) -> Element:
        return Fraction(0) if self._s is None else RationalFunction(0)

    @property
    def one(self) -> Element:
        return Fraction(1) if self._s is None else RationalFunction(1)

    def coerce(self, v) -> Element:
        """Coerce a scalar/polynomial/rational function into this ring.

        Raises ValidationError when the value does not belong to the ring.
        """
        if self._s is None:
            if isinstance(v, (int, Fraction)):
                return Fraction(v)
            if isinstance(v, Polynomial) and v.is_constant:
                return v.constant_value()
            if isinstance(v, RationalFunction) and v.is_constant:
                return v.constant_value()
            raise ValidationError(f"not an element of Q: {v}")
        if isinstance(v, (int, Fraction, Polynomial)):
            return RationalFunction(v)
        if isinstance(v, RationalFunction):
            if not _divides_power(v.den, self._s):
                raise ValidationError(
                    f"denominator {v.den} is not a unit of {self}"
                )
            return v
        raise ValidationError(f"not an element of {self}: {v!r}")

    def is_unit(self, v: Element) -> bool:
        if self._s is None:
            return v != 0
        v = self.coerce(v)
        if v.is_zero:
            return False
        return _divides_power(v.num, self._s)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ring):
            return NotImplemented
        return self._s == other._s

    def __hash__(self) -> int:
        return hash(self._s)

    def __str__(self) -> str:
        if self._s is None:
            return "Q"
        if self._s == Polynomial.one():
            return "Q[x]"
        return f"Q[x][1/({format_polynomial(self._s)})]"

    def __repr__(self) -> str:
        return f"Ring({str(self)})"


#### orderings


def compare_centers(a: Center, b: Center) -> int:
    if isinstance(a, AlgebraicReal):
        return a.compare(b)
    if isinstance(b, AlgebraicReal):
        return -b.compare(a)
    return sgn(a - b)


def _normalize_center(c: "Center | int") -> Center:
    if isinstance(c, AlgebraicReal):
        r = c.as_rational()
        return r if r is not None else c
    return Fraction(c)


def _sign_poly_at_center(p: Polynomial, c: Center) -> int:
    if isinstance(c, AlgebraicReal):
        return sign_at(p, c)
    return sgn(p(c))


class OrderingPoint:
    """Abstract ordering of the base ring."""

    kind: str = "?"

    __hash__ = None  # type: ignore[assignment]

    def sign_of_polynomial(self, p: Polynomial) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<ordering {self}>"


class TheOrdering(OrderingPoint):
    """The unique ordering of Q."""

    kind = "rational-order"

    def sign_of_polynomial(self, p: Polynomial) -> int:
        if not p.is_constant:
            raise ValidationError("nonconstant element evaluated at the ordering of Q")
        return sgn(p.constant_value())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderingPoint):
            return NotImplemented
        return isinstance(other, TheOrdering)

    def __str__(self) -> str:
        return "Q"


class MinusInfinity(OrderingPoint):
    kind = "minus-inf"

    def sign_of_polynomial(self, p: Polynomial) -> int:
        s = sgn(p.leading)
        return -s if p.degree % 2 == 1 else s

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderingPoint):
            return NotImplemented
        return isinstance(other, MinusInfinity)

    def __str__(self) -> str:
        return "-inf"


class PlusInfinity(OrderingPoint):
    kind = "plus-inf"

    def sign_of_polynomial(self, p: Polynomial) -> int:
        return sgn(p.leading)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderingPoint):
            return NotImplemented
        return isinstance(other, PlusInfinity)

    def __str__(self) -> str:
        return "+inf"


class RationalPoint(OrderingPoint):
    """Evaluation at a rational number."""

    kind = "point"

    def __init__(self, value):
        self.value: Fraction = Fraction(value)

    @property
    def center(self) -> Fraction:
        return self.value

    def sign_of_polynomial(self, p: Polynomial) -> int:
        return sgn(p(self.value))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderingPoint):
            return NotImplemented
        if isinstance(other, RationalPoint):
            return self.value == other.value
        if isinstance(other, AlgebraicPoint):
            return other.value == self.value
        return False

    def __str__(self) -> str:
        return str(self.value)


class AlgebraicPoint(OrderingPoint):
    """Evaluation at an irrational real algebraic number."""

    kind = "point"

    def __init__(self, value: AlgebraicReal):
        if value.as_rational() is not None:
            raise ValueError("use RationalPoint for rational values")
        self.value = value

    @property
    def center(self) -> AlgebraicReal:
        return self.value

    def sign_of_polynomial(self, p: Polynomial) -> int:
        return sign_at(p, self.value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderingPoint):
            return NotImplemented
        if isinstance(other, AlgebraicPoint):
            return self.value == other.value
        if isinstance(other, RationalPoint):
            return self.value == other.value
        return False

    def __str__(self) -> str:
        return str(self.value)


def _sign_right(p: Polynomial, c: Center) -> int:
    # sign of p just right of c: first nonvanishing derivative decides
    while True:
        if p.is_zero:
            return 0
        s = _sign_poly_at_center(p, c)
        if s != 0:
            return s
        p = p.derivative()


def _sign_left(p: Polynomial, c: Center) -> int:
    flip = 1
    while True:
        if p.is_zero:
            return 0
        s = _sign_poly_at_center(p, c)
        if s != 0:
            return flip * s
        p = p.derivative()
        flip = -flip


class CutLeft(OrderingPoint):
    """Limit from below: signs just left of the center."""

    kind = "cut-left"

    def __init__(self, center: "Center | int"):
        self.center = _normalize_center(center)

    def sign_of_polynomial(self, p: Polynomial) -> int:
        return _sign_left(p, self.center)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderingPoint):
            return NotImplemented
        return isinstance(other, CutLeft) and compare_centers(self.center, other.center) == 0

    def __str__(self) -> str:
        return f"{self.center}-"


class CutRight(OrderingPoint):
    """Limit from above: signs just right of the center."""

    kind = "cut-right"

    def __init__(self, center: "Center | int"):
        self.center = _normalize_center(center)

    def sign_of_polynomial(self, p: Polynomial) -> int:
        return _sign_right(p, self.center)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderingPoint):
            return NotImplemented
        return isinstance(other, CutRight) and compare_centers(self.center, other.center) == 0

    def __str__(self) -> str:
        return f"{self.center}+"


def point_at(value: "Center | int") -> OrderingPoint:
    """Point ordering at a rational or algebraic number, normalized."""
    v = _normalize_center(value)
    if isinstance(v, AlgebraicReal):
        return AlgebraicPoint(v)
    return RationalPoint(v)


def sign_of(e: Element, point: OrderingPoint) -> int:
    """Exact sign of a ring element under an ordering."""
    if isinstance(e, (int, Fraction)):
        return sgn(e)
    if isinstance(point, TheOrdering):
        if not e.is_constant:
            raise ValidationError("nonconstant element evaluated at the ordering of Q")
        return sgn(e.constant_value())
    # signs are multiplicative, so a quotient splits into num and den signs
    sn = point.sign_of_polynomial(e.num)
    sd = point.sign_of_polynomial(e.den)
    if sd == 0:
        raise AdmissibilityError(
            f"denominator {e.den} vanishes at ordering {point}"
        )
    return sn * sd


def ensure_admissible(ring: Ring, point: OrderingPoint) -> None:
    """Check that the ordering exists for this ring; raise AdmissibilityError."""
    if ring.is_rational_base:
        if not isinstance(point, TheOrdering):
            raise AdmissibilityError(f"base Q admits no ordering {point}")
        return
    if isinstance(point, TheOrdering):
        raise AdmissibilityError("the ordering of Q is not an ordering of a polynomial ring")
    if point.kind == "point":
        if _sign_poly_at_center(ring.s, point.center) == 0:
            raise AdmissibilityError(
                f"denominator support vanishes at {point}; no such ordering"
            )


#### ordering text grammar


# the exponent of a decimal literal, as Fraction reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")


def _parse_fraction(text: str, line: int | None) -> Fraction:
    """A rational literal whose numerator and denominator fit in MAX_POWER_BITS.

    Fraction computes 10**e for an exponent e, so the exponent is bounded
    before the value is built. The mantissa has at most two parts of 4300
    digits, so a nonzero one with |e| > MAX_POWER_BITS leaves more bits
    than that in the numerator (e > 0) or the denominator (e < 0).
    """
    t = text.strip()
    try:
        exp = _EXPONENT.search(t)
        huge = exp is not None and abs(int(exp.group(1))) > MAX_POWER_BITS
        # with a huge exponent only the mantissa is built: 0 stays 0
        value = Fraction(t[: exp.start()] + "e0") if huge else Fraction(t)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid rational literal {t!r}", line=line) from None
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if (value != 0) if huge else bits > MAX_POWER_BITS:
        raise ParseError(
            f"rational literal {t!r} exceeds the limit of {MAX_POWER_BITS} bits "
            "in its numerator or denominator",
            line=line,
        )
    return value


def _parse_root_designator(text: str, line: int | None) -> AlgebraicReal:
    # full designator: root(<poly>,[a,b])
    if not (text.startswith("root(") and text.endswith(")")):
        raise ParseError("malformed root designator", line=line)
    body = text[len("root("):-1]
    depth = 0
    comma = -1
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses in root designator", line=line)
        elif ch == "," and depth == 0:
            comma = i
            break
    if comma < 0:
        raise ParseError("root designator needs a polynomial and an interval", line=line)
    poly = parse_polynomial(body[:comma], line)
    rest = body[comma + 1:].strip()
    if not (rest.startswith("[") and rest.endswith("]")):
        raise ParseError("root designator interval must look like [a,b]", line=line)
    parts = rest[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError("root designator interval must have two endpoints", line=line)
    a = _parse_fraction(parts[0], line)
    b = _parse_fraction(parts[1], line)
    if a > b:
        raise ParseError("root designator interval is empty", line=line)
    if poly.degree < 1:
        raise ParseError("root designator polynomial must be nonconstant", line=line)
    hits = [r for r in isolate_real_roots(poly) if r.compare(a) >= 0 and r.compare(b) <= 0]
    if len(hits) != 1:
        raise ParseError(
            f"interval [{a},{b}] isolates {len(hits)} roots of {format_polynomial(poly)},"
            " expected exactly one",
            line=line,
        )
    return hits[0]


def parse_ordering(text: str, line: int | None = None) -> OrderingPoint:
    """Parse `r`, `r-`, `r+`, `root(p,[a,b])` (with cut suffix), `-inf`, `+inf`."""
    t = text.strip()
    if t == "-inf":
        return MinusInfinity()
    if t == "+inf":
        return PlusInfinity()
    if t.startswith("root("):
        side = 0
        if t.endswith(")-"):
            side, t = -1, t[:-1]
        elif t.endswith(")+"):
            side, t = 1, t[:-1]
        value = _parse_root_designator(t, line)
        if side < 0:
            return CutLeft(value)
        if side > 0:
            return CutRight(value)
        return point_at(value)
    if len(t) > 1 and t.endswith("-"):
        return CutLeft(_parse_fraction(t[:-1], line))
    if len(t) > 1 and t.endswith("+"):
        return CutRight(_parse_fraction(t[:-1], line))
    return RationalPoint(_parse_fraction(t, line))
