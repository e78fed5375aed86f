"""Exact univariate polynomials and rational functions over the rationals.

Coefficients are `fractions.Fraction` throughout; there is no floating point
anywhere. Polynomials are kept in canonical form (no trailing zero
coefficients), rational functions in lowest terms with monic denominator.
A rational function whose denominator is a nonzero constant is normalised
by dividing the numerator by that constant, with no gcd: the denominator
becomes 1, which is the same canonical form, and sums and products of
polynomials stay cheap.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm
from typing import Iterable, Iterator, Union

from .errors import ParseError

Rational = Fraction

Scalar = Union[int, Fraction]


def _frac(v: Scalar) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _cleared(c: "tuple[Fraction, ...]") -> "tuple[list[int], int]":
    """(integer coefficients, d) with d the lcm of the denominators of c."""
    den = 1
    for v in c:
        den = lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in c], den


def _int_mul(a: "list[int]", b: "list[int]") -> "list[int]":
    """Product of two integer coefficient lists, lowest degree first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


class Polynomial:
    """Dense univariate polynomial with Fraction coefficients, canonical form."""

    __slots__ = ("_c",)

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        c = [_frac(v) for v in coefficients]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    #### constructors

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, v: Scalar) -> "Polynomial":
        return cls((v,))

    #### basic queries

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._c

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def leading(self) -> Fraction:
        if not self._c:
            return Fraction(0)
        return self._c[-1]

    def coeff(self, i: int) -> Fraction:
        return self._c[i] if 0 <= i < len(self._c) else Fraction(0)

    @property
    def is_constant(self) -> bool:
        return len(self._c) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return self._c[0] if self._c else Fraction(0)

    #### arithmetic

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        o = _as_poly(other)
        n = max(len(self._c), len(o._c))
        return Polynomial(self.coeff(i) + o.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-v for v in self._c)

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        o = _as_poly(other)
        if not self._c or not o._c:
            return Polynomial.zero()
        # (a/da) * (b/db) = a*b / (da*db) with a, b integer polynomials
        a, da = _cleared(self._c)
        b, db = _cleared(o._c)
        scale = da * db
        return Polynomial(Fraction(v, scale) for v in _int_mul(a, b))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        # (c/d)^e = c^e / d^e with c = d * self an integer polynomial
        base, den = _cleared(self._c)
        result = [1]
        scale = den**e
        while e:
            if e & 1:
                result = _int_mul(result, base)
            e >>= 1
            if e:
                base = _int_mul(base, base)
        return Polynomial(Fraction(v, scale) for v in result)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        o = _as_poly(other)
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._c)
        q = [Fraction(0)] * max(0, len(rem) - len(o._c) + 1)
        lead = o.leading
        while len(rem) >= len(o._c):
            c = rem[-1] / lead
            k = len(rem) - len(o._c)
            q[k] = c
            for i, b in enumerate(o._c):
                rem[k + i] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                break
        return Polynomial(q), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError(f"inexact polynomial division: {self} by {other}")
        return q

    def __call__(self, v: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self._c):
            acc = acc * v + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self._c) if i > 0)

    def monic(self) -> "Polynomial":
        if self.is_zero or self.leading == 1:
            return self
        inv = 1 / self.leading
        return Polynomial(c * inv for c in self._c)

    #### gcd family

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd, via a primitive integer remainder sequence."""
        a, b = self, _as_poly(other)
        if a.is_zero:
            return b.monic()
        if b.is_zero:
            return a.monic()
        ia = _primitive_int_coeffs(a)
        ib = _primitive_int_coeffs(b)
        if len(ia) < len(ib):
            ia, ib = ib, ia
        while ib:
            ia = _int_prem(ia, ib)
            _make_primitive(ia)
            ia, ib = ib, ia
        return Polynomial(ia).monic()

    def squarefree_part(self) -> "Polynomial":
        """Monic product of the distinct irreducible factors."""
        if self.is_zero:
            return self
        if self.degree == 0:
            return Polynomial.one()
        g = self.gcd(self.derivative())
        return self.exact_div(g).monic()

    #### comparisons

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"


def _as_poly(v: "Polynomial | Scalar") -> Polynomial:
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return Polynomial.constant(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Polynomial")


#### integer kernels shared with the Sturm machinery


def _primitive_int_coeffs(p: Polynomial) -> list[int]:
    """Integer coefficient list of a positive rational multiple of p, primitive."""
    if p.is_zero:
        return []
    ints, _ = _cleared(p.coefficients)
    _make_primitive(ints)
    return ints


def _make_primitive(c: list[int]) -> None:
    """Divide an integer coefficient list by its content, in place."""
    g = 0
    for v in c:
        g = int_gcd(g, abs(v))
        if g == 1:
            return
    if g > 1:
        for i, v in enumerate(c):
            c[i] = v // g


def _int_prem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder of integer polynomials, sign-corrected to match rem(f, g).

    Returns r with sign(r(t)) == sign((f mod g)(t)) for all t.
    """
    if not g:
        raise ZeroDivisionError
    r = list(f)
    dg = len(g) - 1
    lead = g[-1]
    if len(f) < len(g):
        return r
    # r ends as lead^mults * rem(f, g); mults is counted, not predicted,
    # because intermediate leading coefficients may cancel and skip steps
    mults = 0
    while r and len(r) - 1 >= dg:
        c = r[-1]
        k = len(r) - 1 - dg
        r = [lead * v for v in r]
        mults += 1
        for i, b in enumerate(g):
            r[k + i] -= c * b
        while r and r[-1] == 0:
            r.pop()
    if lead < 0 and mults % 2 == 1:
        r = [-v for v in r]
    return r


#### text grammar: integer/rational literals, x, + - * / ^, parentheses


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = _format_fraction(mag)
        elif mag == 1:
            body = "x" if i == 1 else f"x^{i}"
        else:
            body = f"{_format_fraction(mag)}*x" + ("" if i == 1 else f"^{i}")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def _format_fraction(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


class RationalFunction:
    """Quotient of polynomials, lowest terms, monic denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: Polynomial | Scalar, den: Polynomial | Scalar = 1):
        n = _as_poly(num)
        d = _as_poly(den)
        if d.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if n.is_zero:
            d = Polynomial.one()
        elif d.degree == 0:
            # a constant denominator is coprime to everything: no gcd
            lead = d.leading
            if lead != 1:
                n = n * (1 / lead)
                d = Polynomial.one()
        else:
            g = n.gcd(d)
            if g.degree > 0:
                n = n.exact_div(g)
                d = d.exact_div(g)
            lead = d.leading
            if lead != 1:
                inv = 1 / lead
                n = n * inv
                d = d * inv
        self._num = n
        self._den = d

    @property
    def num(self) -> Polynomial:
        return self._num

    @property
    def den(self) -> Polynomial:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self._den.degree == 0

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            raise ValueError(f"not a polynomial: {self}")
        return self._num  # denominator is monic constant, hence 1

    @property
    def is_constant(self) -> bool:
        return self._num.is_constant and self._den.is_constant

    def constant_value(self) -> Fraction:
        return self._num.constant_value() / self._den.constant_value()

    def __call__(self, v: Scalar) -> Fraction:
        dv = self._den(v)
        if dv == 0:
            raise ZeroDivisionError(f"pole at {v}")
        return self._num(v) / dv

    def __add__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        o = _as_rf(other)
        return RationalFunction(self._num * o._den + o._num * self._den, self._den * o._den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self._num, self._den)

    def __sub__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        return self + (-_as_rf(other))

    def __rsub__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        return _as_rf(other) + (-self)

    def __mul__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        o = _as_rf(other)
        return RationalFunction(self._num * o._num, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        o = _as_rf(other)
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self._num * o._den, self._den * o._num)

    def __rtruediv__(self, other: "RationalFunction | Polynomial | Scalar") -> "RationalFunction":
        return _as_rf(other) / self

    def __pow__(self, e: int) -> "RationalFunction":
        if e < 0:
            return RationalFunction(self._den, self._num) ** (-e)
        return RationalFunction(self._num ** e, self._den ** e)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Polynomial)):
            other = _as_rf(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self.is_polynomial:
            return format_polynomial(self._num)
        return f"({format_polynomial(self._num)})/({format_polynomial(self._den)})"

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


def _as_rf(v: "RationalFunction | Polynomial | Scalar") -> RationalFunction:
    if isinstance(v, RationalFunction):
        return v
    return RationalFunction(_as_poly(v))


#### parser

_TOKEN_CHARS = set("+-*/^()")

# Deepest nesting a parsed expression may have. A level costs five parser
# frames here and four in the set grammar, whose H(...) bodies are parsed
# here: a set at full depth around a polynomial at full depth, parsed and
# then walked, needs about 620 frames, well inside Python's default
# recursion limit of 1000.
MAX_NESTING = 64

# Highest degree a power base^e, or a product or quotient, may produce.
MAX_POWER_DEGREE = 1000

# Largest coefficient bit length a power base^e, or a product or quotient,
# may produce: that of the longest integer literal the interpreter reads,
# 4300 digits.
MAX_POWER_BITS = (10**4300 - 1).bit_length()


class _Tokenizer:
    def __init__(self, text: str, line: int | None = None):
        self.text = text
        self.pos = 0
        self.line = line
        self.depth = 0

    @contextmanager
    def nested(self) -> Iterator[None]:
        """One more level of nesting; past MAX_NESTING the text is rejected."""
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        yield
        self.depth -= 1

    def error(self, msg: str, pos: int | None = None) -> ParseError:
        col = (self.pos if pos is None else pos) + 1
        return ParseError(msg, line=self.line, col=col)

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch in _TOKEN_CHARS:
            return ch
        if ch.isdigit():
            return "num"
        if ch == "x":
            return "x"
        raise self.error(f"unexpected character {ch!r}")

    def take(self) -> str:
        kind = self.peek()
        if kind is None:
            raise self.error("unexpected end of expression")
        if kind == "num":
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return self.text[start:self.pos]
        self.pos += 1
        return kind

    def number(self) -> int:
        pos = self.pos
        digits = self.take()
        try:
            return int(digits)
        except ValueError:  # beyond the interpreter's integer string limit
            raise self.error(f"number of {len(digits)} digits is too long", pos) from None


def parse_rational_function(text: str, line: int | None = None) -> RationalFunction:
    """Parse the element grammar; `/` is exact division of subexpressions."""
    tok = _Tokenizer(text, line)
    value = _parse_sum(tok)
    if tok.peek() is not None:
        raise tok.error("trailing input after expression")
    return value


def parse_polynomial(text: str, line: int | None = None) -> Polynomial:
    value = parse_rational_function(text, line)
    if not value.is_polynomial:
        raise ParseError("expected a polynomial, got a nonconstant denominator", line=line)
    return value.as_polynomial()


def _parse_sum(tok: _Tokenizer) -> RationalFunction:
    value = _parse_product(tok)
    while True:
        kind = tok.peek()
        if kind == "+":
            tok.take()
            value = value + _parse_product(tok)
        elif kind == "-":
            tok.take()
            value = value - _parse_product(tok)
        else:
            return value


def _parse_product(tok: _Tokenizer) -> RationalFunction:
    sign, base, e = _parse_signed(tok)
    value = _power(base, e)
    while True:
        kind = tok.peek()
        if kind not in ("*", "/"):
            return value if sign > 0 else -value
        pos = tok.pos
        tok.take()
        s, base, e = _parse_signed(tok)
        sign *= s
        if kind == "/":
            if base.is_zero and e:
                raise tok.error("division by zero", pos)
            num, den = base.den, base.num
        else:
            num, den = base.num, base.den
        # the degree before cancellation bounds the work of the product;
        # it is checked before the power is computed
        degree = max(value.num.degree + e * num.degree, value.den.degree + e * den.degree)
        if degree > MAX_POWER_DEGREE:
            raise tok.error(
                f"product of degree {degree} exceeds the limit of {MAX_POWER_DEGREE}", pos
            )
        # so is the coefficient size: bit lengths add under multiplication
        bits = _coeff_bits(value) + e * _coeff_bits(base)
        if bits > MAX_POWER_BITS:
            raise tok.error(
                f"product of {bits} coefficient bits exceeds the limit of {MAX_POWER_BITS}",
                pos,
            )
        factor = _power(base, e)
        value = value * factor if kind == "*" else value / factor


def _power(base: RationalFunction, e: int) -> RationalFunction:
    return base if e == 1 else base**e


def _coeff_bits(f: RationalFunction) -> int:
    """Largest bit length of a numerator or denominator of a coefficient."""
    return max(
        (
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for p in (f.num, f.den)
            for c in p.coefficients
        ),
        default=0,
    )


def _parse_signed(tok: _Tokenizer) -> "tuple[int, RationalFunction, int]":
    """(sign, base, e) of a signed power sign * base^e, not yet computed."""
    sign = 1
    while tok.peek() in ("+", "-"):
        if tok.take() == "-":
            sign = -sign
    return (sign, *_parse_power(tok))


def _parse_power(tok: _Tokenizer) -> "tuple[RationalFunction, int]":
    base = _parse_atom(tok)
    if tok.peek() != "^":
        return base, 1
    tok.take()
    pos = tok.pos
    kind = tok.peek()
    if kind != "num":
        raise tok.error("exponent must be a nonnegative integer", pos)
    e = tok.number()
    degree = e * max(base.num.degree, base.den.degree)
    if degree > MAX_POWER_DEGREE:
        raise tok.error(
            f"power of degree {degree} exceeds the limit of {MAX_POWER_DEGREE}", pos
        )
    bits = e * _coeff_bits(base)
    if bits > MAX_POWER_BITS:
        raise tok.error(
            f"power of {bits} coefficient bits exceeds the limit of {MAX_POWER_BITS}", pos
        )
    return base, e


def _parse_atom(tok: _Tokenizer) -> RationalFunction:
    kind = tok.peek()
    if kind == "num":
        return RationalFunction(Polynomial.constant(tok.number()))
    if kind == "x":
        tok.take()
        return RationalFunction(Polynomial.x())
    if kind == "(":
        tok.take()
        with tok.nested():
            value = _parse_sum(tok)
        if tok.peek() != ")":
            raise tok.error("expected ')'")
        tok.take()
        return value
    raise tok.error("expected a number, 'x' or '('")


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic least common multiple."""
    if a.is_zero or b.is_zero:
        return Polynomial.zero()
    return (a * b).exact_div(a.gcd(b)).monic()

