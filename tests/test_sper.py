"""Ring descriptors, orderings, exact sign evaluation, ordering grammar."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermsig.errors import AdmissibilityError, ParseError, ValidationError
from hermsig.polynomials import Polynomial, RationalFunction, parse_polynomial, parse_rational_function
from hermsig.realroots import isolate_real_roots
from hermsig.sper import (
    AlgebraicPoint,
    CutLeft,
    CutRight,
    MinusInfinity,
    PlusInfinity,
    RationalPoint,
    Ring,
    TheOrdering,
    ensure_admissible,
    parse_ordering,
    point_at,
    sign_of,
)


def P(text):
    return parse_polynomial(text)


def RF(text):
    return parse_rational_function(text)


class TestRing:
    def test_kinds(self):
        q = Ring.rationals()
        qx = Ring.polynomials()
        loc = Ring.localized(P("x"))
        assert q.is_rational_base
        assert not qx.is_rational_base
        assert str(q) == "Q"
        assert str(qx) == "Q[x]"
        assert str(loc) == "Q[x][1/(x)]"
        assert qx == Ring.localized(P("5"))
        assert qx != loc

    def test_coerce_rational_base(self):
        q = Ring.rationals()
        assert q.coerce(3) == Fraction(3)
        assert q.coerce(Polynomial.constant(Fraction(1, 2))) == Fraction(1, 2)
        with pytest.raises(ValidationError):
            q.coerce(P("x"))

    def test_coerce_keeps_an_exact_fraction(self):
        q = Ring.rationals()
        half = Fraction(1, 2)
        assert q.coerce(half) is half

        class Tagged(Fraction):
            pass

        got = q.coerce(Tagged(3, 4))
        assert type(got) is Fraction and got == Fraction(3, 4)
        assert type(q.coerce(True)) is Fraction and q.coerce(True) == 1

    def test_coerce_localized(self):
        loc = Ring.localized(P("x"))
        assert loc.coerce(P("x + 1")) == RF("x + 1")
        assert loc.coerce(RF("1/x")) == RF("1/x")
        assert loc.coerce(RF("(x+1)/x^3")) == RF("(x+1)/x^3")
        with pytest.raises(ValidationError):
            loc.coerce(RF("1/(x+1)"))
        with pytest.raises(ValidationError):
            Ring.polynomials().coerce(RF("1/x"))

    def test_units(self):
        q = Ring.rationals()
        assert q.is_unit(Fraction(-2))
        assert not q.is_unit(Fraction(0))
        qx = Ring.polynomials()
        assert qx.is_unit(RF("7"))
        assert not qx.is_unit(RF("x"))
        loc = Ring.localized(P("x^2 - x"))
        assert loc.is_unit(RF("x"))
        assert loc.is_unit(RF("x - 1"))
        assert loc.is_unit(RF("x^2 - x"))
        assert loc.is_unit(RF("-3*x^4"))
        assert not loc.is_unit(RF("x + 1"))
        assert not loc.is_unit(RF("0"))

    def test_denominator_normalization(self):
        assert Ring.localized(P("2*x")) == Ring.localized(P("x"))


class TestSigns:
    def test_rational_order(self):
        assert sign_of(Fraction(-5), TheOrdering()) == -1
        assert sign_of(Fraction(0), TheOrdering()) == 0
        with pytest.raises(ValidationError):
            sign_of(RF("x"), TheOrdering())

    def test_point_signs(self):
        e = RF("(x - 1)/(x + 2)")
        assert sign_of(e, RationalPoint(2)) == 1
        assert sign_of(e, RationalPoint(0)) == -1
        assert sign_of(e, RationalPoint(1)) == 0
        assert sign_of(e, RationalPoint(-3)) == 1

    def test_pole_is_inadmissible(self):
        with pytest.raises(AdmissibilityError):
            sign_of(RF("1/x"), RationalPoint(0))

    def test_algebraic_point(self):
        sqrt2 = isolate_real_roots(P("x^2 - 2"))[1]
        p = point_at(sqrt2)
        assert isinstance(p, AlgebraicPoint)
        assert sign_of(RF("x^2 - 2"), p) == 0
        assert sign_of(RF("x - 3/2"), p) < 0
        assert sign_of(RF("(x - 1)/(x - 2)"), p) == -1

    def test_infinities(self):
        e = RF("-x^3 + 100")
        assert sign_of(e, PlusInfinity()) == -1
        assert sign_of(e, MinusInfinity()) == 1
        assert sign_of(RF("x^2"), MinusInfinity()) == 1
        assert sign_of(RF("1/x"), MinusInfinity()) == -1
        assert sign_of(RF("0"), PlusInfinity()) == 0

    def test_cut_signs_simple(self):
        x = RF("x")
        assert sign_of(x, CutLeft(0)) == -1
        assert sign_of(x, CutRight(0)) == 1
        assert sign_of(x, CutLeft(5)) == 1

    def test_cut_signs_higher_contact(self):
        # (x - 1)^2 is positive on both sides, (x - 1)^3 flips
        sq = RF("(x - 1)^2")
        cu = RF("(x - 1)^3")
        assert sign_of(sq, CutLeft(1)) == 1
        assert sign_of(sq, CutRight(1)) == 1
        assert sign_of(cu, CutLeft(1)) == -1
        assert sign_of(cu, CutRight(1)) == 1

    def test_cut_at_algebraic_center(self):
        sqrt2 = isolate_real_roots(P("x^2 - 2"))[1]
        p = RF("x^2 - 2")
        assert sign_of(p, CutLeft(sqrt2)) == -1
        assert sign_of(p, CutRight(sqrt2)) == 1
        assert sign_of(RF("(x^2 - 2)^2"), CutLeft(sqrt2)) == 1

    def test_quotient_at_cut(self):
        # 1/x near 0: negative from the left, positive from the right
        e = RF("1/x")
        assert sign_of(e, CutLeft(0)) == -1
        assert sign_of(e, CutRight(0)) == 1

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(Polynomial),
        st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(Polynomial),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )
    @settings(max_examples=60)
    def test_cut_signs_multiplicative(self, p, q, c):
        for cut in (CutLeft(c), CutRight(c)):
            assert cut.sign_of_polynomial(p * q) == cut.sign_of_polynomial(
                p
            ) * cut.sign_of_polynomial(q)

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(Polynomial),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )
    @settings(max_examples=60)
    def test_cut_signs_match_root_free_samples(self, p, c):
        if p.is_zero:
            return
        # sample inside a window known to contain no root of p, where the
        # sign is provably constant up to the cut
        roots = isolate_real_roots(p)
        below = [r for r in roots if r.compare(c) < 0]
        if below:
            r = below[-1]
            while not r.hi < c:
                r.refine()
            left_sample = (r.hi + c) / 2
        else:
            left_sample = c - 1
        above = [r for r in roots if r.compare(c) > 0]
        if above:
            r = above[0]
            while not r.lo > c:
                r.refine()
            right_sample = (c + r.lo) / 2
        else:
            right_sample = c + 1
        assert CutLeft(c).sign_of_polynomial(p) == (1 if p(left_sample) > 0 else -1)
        assert CutRight(c).sign_of_polynomial(p) == (1 if p(right_sample) > 0 else -1)


class TestAdmissibility:
    def test_base_q(self):
        ensure_admissible(Ring.rationals(), TheOrdering())
        with pytest.raises(AdmissibilityError):
            ensure_admissible(Ring.rationals(), RationalPoint(1))

    def test_polynomial_ring(self):
        qx = Ring.polynomials()
        ensure_admissible(qx, RationalPoint(0))
        ensure_admissible(qx, MinusInfinity())
        with pytest.raises(AdmissibilityError):
            ensure_admissible(qx, TheOrdering())

    def test_localized_ring(self):
        loc = Ring.localized(P("x"))
        with pytest.raises(AdmissibilityError):
            ensure_admissible(loc, RationalPoint(0))
        ensure_admissible(loc, CutLeft(0))
        ensure_admissible(loc, CutRight(0))
        ensure_admissible(loc, RationalPoint(1))
        sqrt2 = isolate_real_roots(P("x^2 - 2"))[1]
        ensure_admissible(loc, AlgebraicPoint(sqrt2))
        loc2 = Ring.localized(P("x^2 - 2"))
        with pytest.raises(AdmissibilityError):
            ensure_admissible(loc2, AlgebraicPoint(sqrt2))


class TestOrderingEquality:
    def test_points(self):
        assert RationalPoint(Fraction(1, 2)) == RationalPoint(Fraction(1, 2))
        assert RationalPoint(1) != RationalPoint(2)
        assert RationalPoint(1) != CutLeft(1)
        assert CutLeft(1) != CutRight(1)
        assert TheOrdering() == TheOrdering()
        assert MinusInfinity() != PlusInfinity()

    def test_algebraic_vs_rational(self):
        r2a = isolate_real_roots(P("x^2 - 2"))[1]
        r2b = isolate_real_roots(P("(x^2 - 2)*(x - 9)"))[1]
        assert AlgebraicPoint(r2a) == AlgebraicPoint(r2b)
        assert CutLeft(r2a) == CutLeft(r2b)
        assert point_at(Fraction(2)) == RationalPoint(2)

    def test_point_at_normalizes(self):
        # degree-1 definings collapse to rational points; rational values
        # hidden behind higher-degree definings are only caught by equality
        one = isolate_real_roots(P("x - 1"))[0]
        p = point_at(one)
        assert isinstance(p, RationalPoint)
        with pytest.raises(ValueError):
            AlgebraicPoint(one)
        hidden = isolate_real_roots(P("x^2 - 1"))[1]
        assert isinstance(point_at(hidden), AlgebraicPoint)
        assert point_at(hidden) == RationalPoint(1)


class TestOrderingGrammar:
    def test_rational_forms(self):
        assert parse_ordering("3/2") == RationalPoint(Fraction(3, 2))
        assert parse_ordering("-2") == RationalPoint(-2)
        assert parse_ordering(" 0 ") == RationalPoint(0)
        assert parse_ordering("3/2-") == CutLeft(Fraction(3, 2))
        assert parse_ordering("-1+") == CutRight(-1)
        assert parse_ordering("-inf") == MinusInfinity()
        assert parse_ordering("+inf") == PlusInfinity()

    def test_root_forms(self):
        p = parse_ordering("root(x^2 - 2,[1,2])")
        sqrt2 = isolate_real_roots(P("x^2 - 2"))[1]
        assert p == AlgebraicPoint(sqrt2)
        assert parse_ordering("root(x^2 - 2,[1,2])-") == CutLeft(sqrt2)
        assert parse_ordering("root(x^2 - 2,[1,2])+") == CutRight(sqrt2)
        assert parse_ordering("root(x^2 - 1,[0,3/2])") == RationalPoint(1)
        assert parse_ordering("root((x - 1)*(x - 4),[0,2])") == RationalPoint(1)

    def test_root_errors(self):
        with pytest.raises(ParseError):
            parse_ordering("root(x^2 - 2,[-2,2])")  # two roots
        with pytest.raises(ParseError):
            parse_ordering("root(x^2 + 1,[-2,2])")  # none
        with pytest.raises(ParseError):
            parse_ordering("root(x^2 - 2,[2,1])")
        with pytest.raises(ParseError):
            parse_ordering("root(x^2 - 2,[1,2]")
        with pytest.raises(ParseError):
            parse_ordering("root(3,[1,2])")

    def test_bad_literals(self):
        with pytest.raises(ParseError):
            parse_ordering("oo")
        with pytest.raises(ParseError):
            parse_ordering("1/0")
        with pytest.raises(ParseError):
            parse_ordering("")

    def test_literal_size_bound(self):
        # 10^4300 has MAX_POWER_BITS = 14285 bits, 10^4301 more
        assert parse_ordering("1e4300") == RationalPoint(10**4300)
        assert parse_ordering("1e-4300-") == CutLeft(Fraction(1, 10**4300))
        assert parse_ordering("-0.0e99999999") == RationalPoint(0)
        assert parse_ordering("25e-1_0") == RationalPoint(Fraction(1, 4 * 10**8))
        for text in ("1e4301", "1e-4301", "0.5e-14286", "-3e99999999+", "9" * 4300 + "." + "9" * 4300):
            with pytest.raises(ParseError, match="limit"):
                parse_ordering(text)

    def test_round_trip(self):
        for text in ["3/2", "-2", "3/2-", "0+", "-inf", "+inf"]:
            assert str(parse_ordering(text)) == text
        p = parse_ordering("root(x^2 - 3,[0,2])")
        assert parse_ordering(str(p)) == p
        c = parse_ordering("root(x^2 - 3,[0,2])-")
        assert parse_ordering(str(c)) == c
