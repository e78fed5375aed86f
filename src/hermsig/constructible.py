"""Constructible subsets of the orderings, as positivity formulas.

A set is described by combining atoms H(p) = "p is positive" with and, or,
not. Conversion from a step function level set back to such a formula walks
the sign conditions of the full derivative chain of one polynomial; on that
chain every realizable sign condition carves out a single point or a single
interval of the line, which is what makes the emitted formula exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .errors import ValidationError
from .polynomials import Polynomial, _Tokenizer, format_polynomial, parse_polynomial
from .realroots import isolate_real_roots
from .sper import OrderingPoint, RationalPoint, Ring, _sign_poly_at_center, point_at
from .stepfun import StepFunction, interval_samples, merge_centers


class Constructible:
    """Abstract positivity formula."""

    def member(self, point: OrderingPoint) -> bool:
        raise NotImplementedError

    def leaf_polynomials(self) -> Iterator[Polynomial]:
        raise NotImplementedError

    def __str__(self) -> str:
        return _format(self, 0)

    def __repr__(self) -> str:
        return f"Constructible({self})"

    def __and__(self, other: "Constructible") -> "Constructible":
        return AndSet((self, other))

    def __or__(self, other: "Constructible") -> "Constructible":
        return OrSet((self, other))

    def __invert__(self) -> "Constructible":
        return NotSet(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constructible):
            return NotImplemented
        return _structural_eq(self, other)

    __hash__ = None  # type: ignore[assignment]


class HalfSpace(Constructible):
    """H(p): the orderings where p is strictly positive."""

    def __init__(self, p: Polynomial):
        if p.is_zero:
            raise ValidationError("H(0) is empty; use H(-1) to write the empty set")
        self.p = p

    def member(self, point: OrderingPoint) -> bool:
        return point.sign_of_polynomial(self.p) > 0

    def leaf_polynomials(self) -> Iterator[Polynomial]:
        yield self.p


class AndSet(Constructible):
    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValidationError("empty conjunction")
        self.parts = parts

    def member(self, point: OrderingPoint) -> bool:
        return all(p.member(point) for p in self.parts)

    def leaf_polynomials(self) -> Iterator[Polynomial]:
        for p in self.parts:
            yield from p.leaf_polynomials()


class OrSet(Constructible):
    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValidationError("empty disjunction")
        self.parts = parts

    def member(self, point: OrderingPoint) -> bool:
        return any(p.member(point) for p in self.parts)

    def leaf_polynomials(self) -> Iterator[Polynomial]:
        for p in self.parts:
            yield from p.leaf_polynomials()


class NotSet(Constructible):
    def __init__(self, inner: Constructible):
        self.inner = inner

    def member(self, point: OrderingPoint) -> bool:
        return not self.inner.member(point)

    def leaf_polynomials(self) -> Iterator[Polynomial]:
        yield from self.inner.leaf_polynomials()


def full_set() -> Constructible:
    return NotSet(HalfSpace(Polynomial.constant(-1)))


def empty_set() -> Constructible:
    return HalfSpace(Polynomial.constant(-1))


def _structural_eq(a: Constructible, b: Constructible) -> bool:
    if isinstance(a, HalfSpace) and isinstance(b, HalfSpace):
        return a.p == b.p
    if isinstance(a, NotSet) and isinstance(b, NotSet):
        return _structural_eq(a.inner, b.inner)
    if isinstance(a, (AndSet, OrSet)) and type(a) is type(b):
        return len(a.parts) == len(b.parts) and all(
            _structural_eq(x, y) for x, y in zip(a.parts, b.parts)
        )
    return False


#### formatting, precedence: not > and > or


def _format(c: Constructible, level: int) -> str:
    if isinstance(c, HalfSpace):
        return f"H({format_polynomial(c.p)})"
    if isinstance(c, NotSet):
        return f"not {_format(c.inner, 2)}"
    if isinstance(c, AndSet):
        body = " and ".join(_format(p, 2) for p in c.parts)
        return f"({body})" if level > 1 else body
    if isinstance(c, OrSet):
        body = " or ".join(_format(p, 1) for p in c.parts)
        return f"({body})" if level > 0 else body
    raise TypeError(type(c).__name__)


class _SetTokenizer(_Tokenizer):
    """Words and parentheses of the set grammar; nesting as for polynomials."""

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        if ch in "()":
            return ch
        if ch.isalpha():
            start = self.pos
            end = start
            while end < len(self.text) and self.text[end].isalpha():
                end += 1
            return self.text[start:end]
        raise self.error(f"unexpected character {ch!r}")

    def take(self) -> str:
        word = self.peek()
        if word is None:
            raise self.error("unexpected end of set expression")
        self.pos += len(word)
        return word


def parse_constructible(text: str, line: int | None = None) -> Constructible:
    tok = _SetTokenizer(text, line)
    value = _parse_or(tok)
    if tok.peek() is not None:
        raise tok.error("trailing input after set expression")
    return value


def _parse_or(tok: _SetTokenizer) -> Constructible:
    parts = [_parse_and(tok)]
    while tok.peek() is not None and tok.peek().lower() == "or":
        tok.take()
        parts.append(_parse_and(tok))
    return parts[0] if len(parts) == 1 else OrSet(parts)


def _parse_and(tok: _SetTokenizer) -> Constructible:
    parts = [_parse_not(tok)]
    while tok.peek() is not None and tok.peek().lower() == "and":
        tok.take()
        parts.append(_parse_not(tok))
    return parts[0] if len(parts) == 1 else AndSet(parts)


def _parse_not(tok: _SetTokenizer) -> Constructible:
    if tok.peek() is not None and tok.peek().lower() == "not":
        tok.take()
        with tok.nested():
            return NotSet(_parse_not(tok))
    return _parse_set_atom(tok)


def _parse_set_atom(tok: _SetTokenizer) -> Constructible:
    kind = tok.peek()
    if kind == "(":
        tok.take()
        with tok.nested():
            value = _parse_or(tok)
        if tok.peek() != ")":
            raise tok.error("expected ')'")
        tok.take()
        return value
    if kind is not None and kind.lower() == "h":
        tok.take()
        if tok.peek() != "(":
            raise tok.error("expected '(' after H")
        # the polynomial text runs to the matching ')'
        tok.take()
        start = tok.pos
        depth = 1
        while tok.pos < len(tok.text):
            ch = tok.text[tok.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
            tok.pos += 1
        if depth != 0:
            raise tok.error("unterminated H(...)")
        body = tok.text[start:tok.pos]
        tok.pos += 1
        p = parse_polynomial(body, tok.line)
        if p.is_zero:
            raise tok.error("H(0) is empty; write H(-1) for the empty set")
        return HalfSpace(p)
    raise tok.error("expected H(...), 'not', or '('")


#### indicators and level sets


def constructible_indicator(ring: Ring, u: Constructible) -> StepFunction:
    """0/1 step function of membership in the set."""
    centers: list = []
    for p in u.leaf_polynomials():
        if p.degree > 0:
            centers.extend(isolate_real_roots(p))
    return StepFunction.build(
        ring, centers, lambda point: 1 if u.member(point) else 0
    )


def sets_equal(ring: Ring, u: Constructible, v: Constructible) -> bool:
    """Semantic equality: the sets contain the same orderings of the ring."""
    return constructible_indicator(ring, u) == constructible_indicator(ring, v)


def _derivative_chain(p: Polynomial) -> list[Polynomial]:
    chain = []
    while p.degree >= 1:
        if isolate_real_roots(p):
            chain.append(p)
        p = p.derivative()
    return chain


def level_to_constructible(f: StepFunction, value: int) -> Constructible:
    """A positivity formula for the level set {f = value}.

    Works on the full derivative chain of the product of the breakpoint
    defining polynomials: its sign conditions cut the line into the refined
    cells, each realizable condition describing exactly one cell together
    with the cuts in its closure. A step function takes the value of the
    adjacent interval at each cut and infinite end, so its level set is a
    union of such cells and points.
    """
    ring = f.ring
    product = Polynomial.one()
    for b in f.breaks:
        if isinstance(b.center, Fraction):
            d = Polynomial((-b.center, 1))
        else:
            d = b.center.defining
        if not (product % d).is_zero:
            product = product * d
    product = product.squarefree_part()
    chain = _derivative_chain(product)

    if not chain:
        # no breakpoints at all: the function is a single constant cell
        return full_set() if f.intervals[0] == value else empty_set()

    refined = merge_centers([isolate_real_roots(q) for q in chain])

    def matches(point: OrderingPoint) -> bool:
        return f.value_at(point) == value

    # the emitted interval conditions absorb the cuts at their endpoints
    samples = interval_samples(refined)
    interval_in = [matches(RationalPoint(q)) for q in samples]

    pieces: list[Constructible] = []

    def sign_condition(signs: list[int]) -> Constructible:
        conds: list[Constructible] = []
        for q, s in zip(chain, signs):
            if s > 0:
                conds.append(HalfSpace(q))
            elif s < 0:
                conds.append(HalfSpace(-q))
            else:
                conds.append(AndSet((NotSet(HalfSpace(q)), NotSet(HalfSpace(-q)))))
        return conds[0] if len(conds) == 1 else AndSet(conds)

    for i, q_sample in enumerate(samples):
        if interval_in[i]:
            pieces.append(sign_condition([(1 if q(q_sample) > 0 else -1) for q in chain]))
    for c in refined:
        if _sign_poly_at_center(ring.s, c) == 0:
            continue  # no ordering lives at this point
        if matches(point_at(c)):
            pieces.append(
                sign_condition([_sign_poly_at_center(q, c) for q in chain])
            )

    if not pieces:
        return empty_set()
    if len(pieces) == len(samples) + sum(
        1 for c in refined if _sign_poly_at_center(ring.s, c) != 0
    ):
        return full_set()
    return pieces[0] if len(pieces) == 1 else OrSet(pieces)
