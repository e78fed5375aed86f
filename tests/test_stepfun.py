"""Step function cells, canonicalization, combination, clopen test."""

import time
from fractions import Fraction

import pytest

from hermsig.errors import AdmissibilityError, InconsistencyError, ValidationError
from hermsig.polynomials import parse_polynomial, parse_rational_function
from hermsig.realroots import isolate_real_roots
from hermsig.sper import (
    CutLeft,
    CutRight,
    MinusInfinity,
    PlusInfinity,
    RationalPoint,
    Ring,
    TheOrdering,
    parse_ordering,
    point_at,
    sign_of,
)
from hermsig.stepfun import (
    Breakpoint,
    StepFunction,
    is_harrison_clopen,
    merge_centers,
    rational_between,
    step_combine,
)


def P(text):
    return parse_polynomial(text)


def RF(text):
    return parse_rational_function(text)


QX = Ring.polynomials()


def sign_step(ring, e):
    """Step function of the sign of a ring element."""
    centers = []
    for p in (e.num, e.den):
        if p.degree > 0:
            centers.extend(isolate_real_roots(p))
    return StepFunction.build(ring, centers, lambda pt: sign_of(e, pt))


class TestBuild:
    def test_sign_of_x(self):
        f = sign_step(QX, RF("x"))
        assert f.value_at(MinusInfinity()) == -1
        assert f.value_at(PlusInfinity()) == 1
        assert f.intervals == (-1, 1)
        assert len(f.breaks) == 1
        b = f.breaks[0]
        assert b.center == Fraction(0)
        assert b.at_point == 0
        assert (f.value_at(CutLeft(0)), f.value_at(CutRight(0))) == (-1, 1)

    def test_sign_of_square(self):
        # (x - 1)^2: positive everywhere except a zero at the point 1
        f = sign_step(QX, RF("(x - 1)^2"))
        assert f.intervals == (1, 1)
        assert f.breaks[0].at_point == 0
        assert f.value_at(CutLeft(1)) == 1
        assert f.value_at(CutRight(1)) == 1

    def test_fusion_drops_silent_breakpoints(self):
        # evaluator constant despite a declared breakpoint
        f = StepFunction.build(QX, [Fraction(3)], lambda pt: 7)
        assert f.breaks == ()
        assert f.intervals == (7,)
        assert f == StepFunction.build(QX, [], lambda _: 7)

    def test_puncture_never_fused(self):
        loc = Ring.localized(P("x"))
        f = StepFunction.build(loc, [], lambda _: 5)
        assert len(f.breaks) == 1
        assert f.breaks[0].at_point is None
        assert f.breaks[0].center == Fraction(0)
        assert f.value_at(CutLeft(0)) == 5
        with pytest.raises(AdmissibilityError):
            f.value_at(RationalPoint(0))

    def test_algebraic_breakpoints(self):
        f = sign_step(QX, RF("x^2 - 2"))
        assert f.intervals == (1, -1, 1)
        assert [b.at_point for b in f.breaks] == [0, 0]
        assert f.value_at(parse_ordering("root(x^2 - 2,[1,2])")) == 0
        assert f.value_at(parse_ordering("root(x^2 - 2,[1,2])-")) == -1
        assert f.value_at(parse_ordering("root(x^2 - 2,[1,2])+")) == 1
        assert f.value_at(RationalPoint(Fraction(7, 5))) == -1
        assert f.value_at(MinusInfinity()) == 1

    def test_base_q(self):
        q = Ring.rationals()
        f = StepFunction.build(q, [], lambda pt: -3)
        assert f.constant == -3
        assert f.value_at(TheOrdering()) == -3
        with pytest.raises(AdmissibilityError):
            f.value_at(RationalPoint(0))

    def test_constructor_checks(self):
        q = Ring.rationals()
        with pytest.raises(ValidationError):
            StepFunction(q, (1, 1), (Breakpoint(Fraction(0), 1),))
        with pytest.raises(ValidationError):
            StepFunction(QX, (0, 0), ())
        assert StepFunction(q, (5,), ()).constant == 5
        assert StepFunction(QX, (5,), ()).constant is None

    def test_value_at_between_breaks(self):
        f = sign_step(QX, RF("x^3 - x"))
        assert f.value_at(RationalPoint(Fraction(-1, 2))) == 1
        assert f.value_at(CutRight(Fraction(1, 2))) == -1
        assert f.value_at(point_at(Fraction(10))) == 1


class TestCombine:
    def test_sum_of_signs(self):
        f = sign_step(QX, RF("x"))
        g = sign_step(QX, RF("x - 1"))
        h = step_combine([f, g], sum)
        assert h.value_at(MinusInfinity()) == -2
        assert h.value_at(PlusInfinity()) == 2
        assert h.intervals == (-2, 0, 2)
        assert [
            (h.value_at(CutLeft(c)), h.value_at(point_at(c)), h.value_at(CutRight(c)))
            for c in (b.center for b in h.breaks)
        ] == [
            (-2, -1, 0),
            (0, 1, 2),
        ]

    def test_product_collapses(self):
        f = sign_step(QX, RF("x"))
        g = sign_step(QX, RF("x"))
        sq = step_combine([f, g], lambda vs: vs[0] * vs[1])
        assert sq == sign_step(QX, RF("x^2"))

    def test_combine_requires_same_ring(self):
        f = sign_step(QX, RF("x"))
        g = StepFunction.build(Ring.localized(P("x")), [], lambda _: 1)
        with pytest.raises(ValidationError):
            step_combine([f, g], sum)

    def test_combine_keeps_punctures(self):
        loc = Ring.localized(P("x"))
        f = StepFunction.build(loc, [], lambda pt: sign_of(RF("x"), pt))
        g = StepFunction.build(loc, [], lambda _: 2)
        h = step_combine([f, g], sum)
        assert h.breaks[0].at_point is None
        assert h.value_at(CutLeft(0)) == 1
        assert h.value_at(CutRight(0)) == 3

    def test_map_values(self):
        f = sign_step(QX, RF("x"))
        g = f.map_values(lambda v: v * v)
        assert g == sign_step(QX, RF("x^2"))


class TestEquality:
    def test_across_representations(self):
        a = sign_step(QX, RF("x^2 - 2"))
        sqrt2s = isolate_real_roots(P("(x^2 - 2)*(x^2 - 5)"))
        b = StepFunction.build(
            QX, sqrt2s, lambda pt: sign_of(RF("x^2 - 2"), pt)
        )
        # b declared extra breakpoints at the roots of x^2 - 5; they fuse away
        assert a == b

    def test_inequality(self):
        assert sign_step(QX, RF("x")) != sign_step(QX, RF("-x"))
        assert sign_step(QX, RF("x")) != sign_step(QX, RF("x - 1"))


class TestClopen:
    def test_continuous_indicator(self):
        f = sign_step(QX, RF("x^2 + 1"))
        assert is_harrison_clopen(f, 1)
        assert is_harrison_clopen(f, 0)

    def test_zero_at_point_breaks_clopen(self):
        f = sign_step(QX, RF("x"))
        # {f = 0} is the single point 0: closed, not open
        assert not is_harrison_clopen(f, 0)
        # {f = 1} = (0, +inf) misses its boundary cut agreement at 0
        assert not is_harrison_clopen(f, 1)

    def test_puncture_makes_clopen(self):
        loc = Ring.localized(P("x"))
        f = StepFunction.build(loc, [], lambda pt: sign_of(RF("x"), pt))
        # with the point 0 removed, positives and negatives are both clopen
        assert is_harrison_clopen(f, 1)
        assert is_harrison_clopen(f, -1)

    def test_base_q(self):
        f = StepFunction.build(Ring.rationals(), [], lambda _: 4)
        assert is_harrison_clopen(f, 4)
        assert is_harrison_clopen(f, 0)


class TestHelpers:
    def test_rational_between(self):
        assert rational_between(Fraction(0), Fraction(1)) == Fraction(1, 2)
        r2, r3 = isolate_real_roots(P("(x^2 - 2)*(x^2 - 3)"))[2:]
        q = rational_between(r2, r3)
        assert r2 < q < r3
        q2 = rational_between(Fraction(1), r2)
        assert Fraction(1) < q2 and r2 > q2
        q3 = rational_between(r3, Fraction(50))
        assert r3 < q3 < Fraction(50)

    @pytest.mark.parametrize("kind", ["algebraic", "rational", "left-rational", "right-rational"])
    def test_rational_between_equal_positions_raises(self, kind):
        r = isolate_real_roots(P("x^2 - 2"))[1]
        third = isolate_real_roots(P("3*x - 1"))[0]  # 1/3 as an algebraic number
        a, b = {
            "algebraic": (r, r),
            "rational": (Fraction(1, 3), Fraction(1, 3)),
            "left-rational": (Fraction(1, 3), third),
            "right-rational": (third, Fraction(1, 3)),
        }[kind]
        start = time.monotonic()
        with pytest.raises(InconsistencyError, match="not separated|strictly between"):
            rational_between(a, b)
        assert time.monotonic() - start < 1

    def test_merge_centers(self):
        both = isolate_real_roots(P("x^2 - 2"))
        merged = merge_centers([both, [Fraction(0)], isolate_real_roots(P("x^2 - 2"))])
        assert len(merged) == 3
        assert merged[1] == Fraction(0)

    def test_cells_iteration(self):
        f = sign_step(QX, RF("x"))
        kinds = [k for k, _, _ in f.cells()]
        assert kinds == [
            "minus-inf",
            "interval",
            "left-cut",
            "point",
            "right-cut",
            "interval",
            "plus-inf",
        ]
        loc = Ring.localized(P("x"))
        g = StepFunction.build(loc, [], lambda pt: sign_of(RF("x"), pt))
        kinds = [k for k, _, _ in g.cells()]
        assert "point" not in kinds

    def test_value_map(self):
        f = sign_step(QX, RF("x"))
        assert list(f.value_map()) == [-1, 0, 1]
