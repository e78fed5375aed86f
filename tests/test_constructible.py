"""Constructible set formulas, membership, indicators, level set conversion."""

from fractions import Fraction

import pytest

from hermsig.constructible import (
    AndSet,
    HalfSpace,
    NotSet,
    OrSet,
    constructible_indicator,
    empty_set,
    full_set,
    level_to_constructible,
    parse_constructible,
    sets_equal,
)
from hermsig.errors import ParseError
from hermsig.polynomials import MAX_NESTING, parse_polynomial, parse_rational_function
from hermsig.realroots import isolate_real_roots
from hermsig.sper import (
    CutLeft,
    CutRight,
    MinusInfinity,
    PlusInfinity,
    RationalPoint,
    Ring,
    sign_of,
)
from hermsig.stepfun import Breakpoint, StepFunction, step_combine


def P(text):
    return parse_polynomial(text)


def RF(text):
    return parse_rational_function(text)


QX = Ring.polynomials()


def sign_step(ring, e):
    centers = []
    for p in (e.num, e.den):
        if p.degree > 0:
            centers.extend(isolate_real_roots(p))
    return StepFunction.build(ring, centers, lambda pt: sign_of(e, pt))


class TestMembership:
    def test_halfspace(self):
        u = HalfSpace(P("x"))
        assert u.member(RationalPoint(2))
        assert not u.member(RationalPoint(0))
        assert not u.member(RationalPoint(-2))
        assert u.member(PlusInfinity())
        assert not u.member(MinusInfinity())
        assert not u.member(CutLeft(0))
        assert u.member(CutRight(0))

    def test_connectives(self):
        u = parse_constructible("H(x) and not H(x - 1)")
        assert u.member(RationalPoint(Fraction(1, 2)))
        assert not u.member(RationalPoint(2))
        assert not u.member(RationalPoint(-1))
        assert u.member(RationalPoint(1))  # x - 1 is zero, not positive

    def test_full_empty(self):
        assert full_set().member(RationalPoint(0))
        assert full_set().member(MinusInfinity())
        assert not empty_set().member(RationalPoint(0))


class TestGrammar:
    def test_parse_precedence(self):
        u = parse_constructible("H(x) or H(x - 1) and H(x - 2)")
        assert isinstance(u, OrSet)
        assert isinstance(u.parts[1], AndSet)
        v = parse_constructible("not H(x) and H(x + 1)")
        assert isinstance(v, AndSet)
        assert isinstance(v.parts[0], NotSet)

    def test_parse_parens(self):
        u = parse_constructible("(H(x) or H(x - 1)) and H(x - 2)")
        assert isinstance(u, AndSet)
        assert isinstance(u.parts[0], OrSet)

    def test_nested_poly_parens(self):
        u = parse_constructible("H((x - 1)*(x + 1))")
        assert isinstance(u, HalfSpace)
        assert u.p == P("x^2 - 1")

    def test_errors(self):
        for bad in ["H(x", "H()", "H(x) and", "and H(x)", "H(x) H(x)", "H(0)"]:
            with pytest.raises(ParseError):
                parse_constructible(bad)

    @pytest.mark.parametrize("wrap", ["({})", "not {}"], ids=["parens", "not"])
    def test_nesting_limit(self, wrap):
        # the deepest set holding the deepest polynomial
        text = "H(" + "(" * MAX_NESTING + "x" + ")" * MAX_NESTING + ")"
        for _ in range(MAX_NESTING):
            text = wrap.format(text)
        u = parse_constructible(text)
        assert parse_constructible(str(u)) == u
        assert sets_equal(QX, u, u)
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}"):
            parse_constructible(wrap.format(text))

    def test_round_trip(self):
        for text in [
            "H(x)",
            "not H(x)",
            "H(x) and not H(x - 1)",
            "H(x) or H(x - 1) and H(x - 2)",
            "(H(x) or H(x - 1)) and H(x - 2)",
            "not (H(x) or H(x + 1))",
        ]:
            u = parse_constructible(text)
            assert parse_constructible(str(u)) == u


class TestIndicator:
    def test_open_halfline(self):
        f = constructible_indicator(QX, parse_constructible("H(x)"))
        assert f.value_at(MinusInfinity()) == 0
        assert f.value_at(PlusInfinity()) == 1
        assert f.intervals == (0, 1)
        assert f.breaks[0].at_point == 0
        assert (f.value_at(CutLeft(0)), f.value_at(CutRight(0))) == (0, 1)

    def test_union(self):
        u = parse_constructible("H(x) or H(-x - 1)")
        f = constructible_indicator(QX, u)
        # members: x < -1 and x > 0
        assert f.value_at(RationalPoint(-2)) == 1
        assert f.value_at(RationalPoint(Fraction(-1, 2))) == 0
        assert f.value_at(RationalPoint(1)) == 1
        assert f.value_at(RationalPoint(-1)) == 0
        assert f.value_at(RationalPoint(0)) == 0

    def test_base_q(self):
        q = Ring.rationals()
        f = constructible_indicator(q, parse_constructible("H(3)"))
        assert f.constant == 1
        g = constructible_indicator(q, parse_constructible("H(-3)"))
        assert g.constant == 0

    def test_localized(self):
        loc = Ring.localized(P("x"))
        f = constructible_indicator(loc, parse_constructible("H(x)"))
        assert f.breaks[0].at_point is None


class TestSetsEqual:
    def test_same_set_different_formulas(self):
        u = parse_constructible("H(x) and H(x - 1)")
        v = parse_constructible("H(x - 1)")
        assert sets_equal(QX, u, v)

    def test_de_morgan(self):
        u = parse_constructible("not (H(x) or H(x - 1))")
        v = parse_constructible("not H(x) and not H(x - 1)")
        assert sets_equal(QX, u, v)

    def test_distinct(self):
        assert not sets_equal(QX, parse_constructible("H(x)"), parse_constructible("H(-x)"))


class TestLevelToConstructible:
    def check_level(self, ring, f, value):
        u = level_to_constructible(f, value)
        ind = constructible_indicator(ring, u)
        want = f.map_values(lambda v: 1 if v == value else 0)
        assert ind == want
        return u

    def test_sign_levels(self):
        for e in ["x", "x^2 - 2", "(x - 1)*(x + 2)", "x^2 + 1", "x^3 - x"]:
            f = sign_step(QX, RF(e))
            for value in (-1, 0, 1, 7):
                self.check_level(QX, f, value)

    def test_indicator_levels(self):
        for text in [
            "H(x)",
            "H(x) or H(-x - 1)",
            "not H(x)",
            "H(x^2 - 2) and H(x)",
        ]:
            f = constructible_indicator(QX, parse_constructible(text))
            self.check_level(QX, f, 1)
            self.check_level(QX, f, 0)

    def test_recovers_original_set(self):
        u = parse_constructible("H(x) or H(-x - 1)")
        f = constructible_indicator(QX, u)
        v = level_to_constructible(f, 1)
        assert sets_equal(QX, u, v)

    def test_full_and_empty(self):
        f = StepFunction.build(QX, [], lambda _: 3)
        assert str(self.check_level(QX, f, 3)) == "not H(-1)"
        assert str(self.check_level(QX, f, 0)) == "H(-1)"

    def test_base_q(self):
        q = Ring.rationals()
        f = StepFunction.build(q, [], lambda _: 2)
        assert level_to_constructible(f, 2).member is not None
        assert sets_equal(q, level_to_constructible(f, 2), full_set())
        assert sets_equal(q, level_to_constructible(f, 5), empty_set())

    def test_puncture_levels(self):
        loc = Ring.localized(P("x"))
        f = StepFunction.build(loc, [], lambda pt: sign_of(RF("x"), pt))
        upos = self.check_level(loc, f, 1)
        # positives in the punctured line include the right cut at 0
        assert upos.member(CutRight(0))
        assert not upos.member(CutLeft(0))

    def test_combined_function_levels(self):
        f = sign_step(QX, RF("x"))
        g = sign_step(QX, RF("x - 2"))
        h = step_combine([f, g], sum)
        for value in (-2, -1, 0, 1, 2):
            self.check_level(QX, h, value)

    def test_sum_with_algebraic_breaks(self):
        h = step_combine(
            [sign_step(QX, RF("x^2 - 2")), sign_step(QX, RF("x"))], sum
        )
        for value in (-2, -1, 0, 1, 2):
            self.check_level(QX, h, value)

    def test_discontinuous_point_value(self):
        # value at the point differs from both cuts: still constructible
        f = StepFunction(QX, (0, 0), (Breakpoint(Fraction(0), 1),))
        u = self.check_level(QX, f, 1)
        assert u.member(RationalPoint(0))
        assert not u.member(CutLeft(0))
