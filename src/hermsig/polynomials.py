"""Exact univariate polynomials and rational functions over the rationals.

A polynomial is stored as integer coefficients over one positive integer
denominator coprime to their content, the layout of FLINT's `fmpq_poly`
(see also von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 6).
Arithmetic runs on the integers: a product multiplies the two integer lists
and the two denominators and reduces once, with no rational number built per
coefficient. There is no floating point anywhere. The form is canonical (no
trailing zero coefficient, the denominator reduced), so equal polynomials
compare and hash equal. `coefficients`, `coeff` and `leading` give
`fractions.Fraction` views. Rational functions are kept in lowest terms
with monic denominator. A rational function whose denominator is a nonzero
constant is normalised by dividing the numerator by that constant, with no
gcd: the denominator becomes 1, which is the same canonical form, and sums
and products of polynomials stay cheap.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import ParseError

Rational = Fraction

Scalar = Union[int, Fraction]


def _frac(v: Scalar) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _int_mul(a: "Sequence[int]", b: "Sequence[int]") -> "list[int]":
    """Product of two integer coefficient lists, lowest degree first."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + nb] = [s + x * y for s, y in zip(out[i : i + nb], b)]
    return out


class Polynomial:
    """Dense univariate polynomial over Q in canonical form.

    The value is (_n[0] + _n[1] x + ... + _n[k] x^k) / _d: `_n` is a tuple of
    integers, lowest degree first, with no trailing zero, and `_d` is a
    positive integer coprime to their content. The zero polynomial is
    ((), 1).
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        c = [_frac(v) for v in coefficients]
        # each Fraction is reduced, so the lcm of their denominators is
        # coprime to the content of the scaled numerators (and 1 when every
        # coefficient is 0)
        den = lcm(*(v.denominator for v in c))
        n = [v.numerator * (den // v.denominator) for v in c]
        while n and not n[-1]:
            n.pop()
        self._n = tuple(n)
        self._d = den

    @classmethod
    def _make(cls, ints: Iterable[int], den: int = 1) -> "Polynomial":
        """(sum ints[i] x^i) / den for a nonzero integer den, brought to
        canonical form: trailing zeros stripped, gcd(content, den) divided
        out, the denominator made positive."""
        n = list(ints)
        while n and not n[-1]:
            n.pop()
        if not n:
            den = 1
        elif den != 1:
            g = int_gcd(den, *n)
            if den < 0:
                g = -g
            if g != 1:
                n = [v // g for v in n]
                den //= g
        self = object.__new__(cls)
        self._n = tuple(n)
        self._d = den
        return self

    #### constructors

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._make(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._make((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls._make((0, 1))

    @classmethod
    def constant(cls, v: Scalar) -> "Polynomial":
        return cls((v,))

    #### basic queries

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._d) for v in self._n)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self._n) - 1

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def leading(self) -> Fraction:
        if not self._n:
            return Fraction(0)
        return Fraction(self._n[-1], self._d)

    def coeff(self, i: int) -> Fraction:
        return Fraction(self._n[i], self._d) if 0 <= i < len(self._n) else Fraction(0)

    @property
    def is_constant(self) -> bool:
        return len(self._n) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self._n[0], self._d) if self._n else Fraction(0)

    #### arithmetic

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        o = _as_poly(other)
        if not o._n:
            return self
        if not self._n:
            return o
        # a/l + b/l over the lcm l of the denominators
        a, b, da, db = self._n, o._n, self._d, o._d
        l = da if da == db else lcm(da, db)
        if l != da:
            a = [v * (l // da) for v in a]
        if l != db:
            b = [v * (l // db) for v in b]
        if len(a) < len(b):
            a, b = b, a
        s = [x + y for x, y in zip(a, b)]
        s.extend(a[len(b) :])
        return Polynomial._make(s, l)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make([-v for v in self._n], self._d)

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return _as_poly(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        o = _as_poly(other)
        # (a/da) * (b/db) = a*b / (da*db) with a, b integer polynomials
        return Polynomial._make(_int_mul(self._n, o._n), self._d * o._d)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        # (a/d)^e = a^e / d^e, already reduced: gcd(content(a), d) = 1
        base: "Sequence[int]" = self._n
        result: "Sequence[int]" = [1]
        den = self._d**e
        while e:
            if e & 1:
                result = _int_mul(result, base)
            e >>= 1
            if e:
                base = _int_mul(base, base)
        return Polynomial._make(result, den)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        o = _as_poly(other)
        if not o._n:
            raise ZeroDivisionError("polynomial division by zero")
        a = self._n
        db = len(o._n) - 1
        if len(a) <= db:
            return Polynomial.zero(), self
        # divide by the primitive part b of o = cb * b / o._d; the remainder
        # is scaled by s only where a leading coefficient is not a multiple
        # of lead(b), so an exact division by a primitive b never scales
        cb = int_gcd(*o._n)
        b = o._n if cb == 1 else [v // cb for v in o._n]
        lead = b[-1]
        r = list(a)
        q = [0] * (len(a) - db)
        s = 1
        for k in range(len(q) - 1, -1, -1):
            t = r[k + db]
            if not t:
                continue
            if t % lead:
                m = abs(lead) // int_gcd(t, lead)
                r = [v * m for v in r]
                q = [v * m for v in q]
                s *= m
                t *= m
            c = t // lead
            q[k] = c
            r[k : k + db + 1] = [v - c * y for v, y in zip(r[k : k + db + 1], b)]
        # s * a = q * b + r, so self = (q * o._d / (s * self._d * cb)) * o
        # + r / (s * self._d)
        den = s * self._d
        if o._d != 1:
            q = [v * o._d for v in q]
        return Polynomial._make(q, den * cb), Polynomial._make(r[:db], den)

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
        if not self._n:
            return Fraction(0)
        # the homogenized sum of n_i p^i q^(deg-i) over v = p/q is an integer
        p, q = v.numerator, v.denominator
        acc = 0
        qp = 1
        for c in reversed(self._n):
            acc = acc * p + c * qp
            qp *= q
        return Fraction(acc, (qp // q) * self._d)

    def derivative(self) -> "Polynomial":
        n = self._n
        return Polynomial._make([i * n[i] for i in range(1, len(n))], self._d)

    def monic(self) -> "Polynomial":
        if not self._n or self._n[-1] == self._d:
            return self
        return Polynomial._make(self._n, self._n[-1])

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
        return Polynomial._make(ia, ia[-1])

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
        if isinstance(other, Polynomial):
            return self._n == other._n and self._d == other._d
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self._n
            return self._n == (other.numerator,) and self._d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def __bool__(self) -> bool:
        return bool(self._n)

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"


def _as_poly(v: "Polynomial | Scalar") -> Polynomial:
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return Polynomial._make((v.numerator,), v.denominator)
    raise TypeError(f"cannot coerce {type(v).__name__} to Polynomial")


#### integer kernels shared with the Sturm machinery


def _primitive_int_coeffs(p: Polynomial) -> list[int]:
    """Integer coefficient list of a positive rational multiple of p, primitive."""
    c = list(p._n)
    _make_primitive(c)
    return c



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
            if d._n[0] != d._d:
                n = _div_by_leading(n, d)
                d = Polynomial.one()
        else:
            g = n.gcd(d)
            if g.degree > 0:
                n = n.exact_div(g)
                d = d.exact_div(g)
            if d._n[-1] != d._d:
                n = _div_by_leading(n, d)
                d = Polynomial._make(d._n, d._n[-1])
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


def _div_by_leading(n: Polynomial, d: Polynomial) -> Polynomial:
    """n / lead(d) for a nonzero d, whose leading coefficient is d._n[-1] / d._d."""
    e = d._d
    return Polynomial._make([v * e for v in n._n] if e != 1 else n._n, n._d * d._n[-1])


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

# Most work the powers, products and sums of one entry may add up to. A
# power or product counts (degree + 1) * coefficient bits of its result, as
# bounded before it is computed. (x+1)^1000 counts 1.0 * 10^6 and
# (x+1)^500*(x+2)^500 2.3 * 10^6; a sum of such terms is refused at its
# third. A sum of two fractions is brought to lowest terms by a polynomial
# gcd, whose work grows with the square of the degree, so it counts
# (degree + 1)^2 * bits: 1/(x+1)^300 + 1/(x+2)^300 counts 2.8 * 10^8.
MAX_ENTRY_WORK = 8 * 10**6


class _Tokenizer:
    def __init__(self, text: str, line: int | None = None):
        self.text = text
        self.pos = 0
        self.line = line
        self.depth = 0
        self.work = 0

    @contextmanager
    def nested(self) -> Iterator[None]:
        """One more level of nesting; past MAX_NESTING the text is rejected."""
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        yield
        self.depth -= 1

    def charge(self, work: int, pos: int) -> None:
        """Add the work of one power, product or sum, checked before it is
        computed; past MAX_ENTRY_WORK the entry is rejected."""
        self.work += work
        if self.work > MAX_ENTRY_WORK:
            raise self.error(
                f"entry work {self.work} of its powers, products and sums exceeds"
                f" the limit of {MAX_ENTRY_WORK}",
                pos,
            )

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
        if kind not in ("+", "-"):
            return value
        pos = tok.pos
        tok.take()
        term = _parse_product(tok)
        if value.den.degree > 0 and term.den.degree > 0:
            # the numerator and the product of the denominators, before
            # the gcd that brings the sum to lowest terms
            degree = max(
                value.num.degree + term.den.degree,
                term.num.degree + value.den.degree,
                value.den.degree + term.den.degree,
            )
            if degree > MAX_POWER_DEGREE:
                raise tok.error(
                    f"sum of degree {degree} exceeds the limit of {MAX_POWER_DEGREE}", pos
                )
            bits = _coeff_bits(value) + _coeff_bits(term)
            tok.charge((degree + 1) ** 2 * bits, pos)
        value = value + term if kind == "+" else value - term


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
        tok.charge((degree + 1) * bits, pos)
        factor = _power(base, e)
        value = value * factor if kind == "*" else value / factor


def _power(base: RationalFunction, e: int) -> RationalFunction:
    return base if e == 1 else base**e


def _coeff_bits(f: RationalFunction) -> int:
    """Largest bit length of a numerator or denominator of a coefficient."""
    bits = 0
    for p in (f.num, f.den):
        for v in p._n:
            # the coefficient v / p._d in lowest terms
            g = int_gcd(v, p._d)
            bits = max(bits, (v // g).bit_length(), (p._d // g).bit_length())
    return bits


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
    if e > 1:
        tok.charge((degree + 1) * bits, pos)
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

