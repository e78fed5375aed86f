"""Root isolation, algebraic number comparison, exact sign determination.

The sign oracle used here is deliberately independent of the Tarski-query
machinery under test: zero detection goes through gcds and sign changes,
nonzero signs through a mean value certificate on a refined interval.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermsig.realroots
from hermsig.errors import InconsistencyError
from hermsig.polynomials import Polynomial, _primitive_int_coeffs, parse_polynomial
from hermsig.realroots import (
    AlgebraicReal,
    isolate_real_roots,
    separation_bits,
    sgn,
    sign_at,
    sign_variation,
    tarski_query,
)
from hermsig.stepfun import merge_centers


def P(text):
    return parse_polynomial(text)


#### independent sign oracle


def _deriv_bound(p: Polynomial, lo: Fraction, hi: Fraction) -> Fraction:
    # |p'(t)| <= sum |c_i| m^i for |t| <= m, m >= 1
    m = max(abs(lo), abs(hi), Fraction(1))
    return sum(
        (abs(c) * m ** i for i, c in enumerate(p.derivative().coefficients)),
        Fraction(0),
    )


def _oracle_is_root(g: Polynomial, theta: AlgebraicReal) -> bool:
    # g divides the squarefree defining, so a sign change across the
    # isolating interval pins the root to theta itself
    while True:
        if g(theta.lo) * g(theta.hi) < 0:
            return True
        mid = (theta.lo + theta.hi) / 2
        if abs(g(mid)) > _deriv_bound(g, theta.lo, theta.hi) * (theta.hi - theta.lo):
            return False
        theta.refine()


def oracle_sign_at(p: Polynomial, theta: AlgebraicReal) -> int:
    if p.is_zero:
        return 0
    g = p.gcd(theta.defining)
    if g.degree > 0 and _oracle_is_root(g, theta):
        return 0
    while True:
        mid = (theta.lo + theta.hi) / 2
        if abs(p(mid)) > _deriv_bound(p, theta.lo, theta.hi) * (theta.hi - theta.lo):
            return 1 if p(mid) > 0 else -1
        theta.refine()


#### sign variation


def test_sign_variation_examples():
    assert sign_variation([1, -2, 1]) == 2
    assert sign_variation([1, 0, -1]) == 1
    assert sign_variation([1, 1, 1]) == 0
    assert sign_variation([]) == 0
    assert sign_variation([0, 0, 5]) == 0
    assert sign_variation([Fraction(1, 2), -3, 0, 4, -1]) == 3


#### isolation


class TestIsolation:
    def test_no_real_roots(self):
        assert isolate_real_roots(P("x^2 + 1")) == []
        assert isolate_real_roots(P("x^4 + x^2 + 3")) == []

    def test_constant(self):
        assert isolate_real_roots(P("5")) == []
        with pytest.raises(ValueError):
            isolate_real_roots(Polynomial.zero())

    def test_cubic(self):
        roots = isolate_real_roots(P("x^3 - x"))
        assert len(roots) == 3
        assert roots[0] == Fraction(-1)
        assert roots[1] == Fraction(0)
        assert roots[2] == Fraction(1)

    def test_sqrt2(self):
        roots = isolate_real_roots(P("x^2 - 2"))
        assert len(roots) == 2
        neg, pos = roots
        assert neg < 0 < pos
        pos.refine_below(Fraction(1, 100))
        assert pos.lo > 0
        assert pos.lo ** 2 < 2 < pos.hi ** 2

    def test_multiplicity_collapsed(self):
        roots = isolate_real_roots(P("(x - 1)^2 * (x + 2)"))
        assert len(roots) == 2
        assert roots[0] == Fraction(-2)
        assert roots[1] == Fraction(1)
        # defining carried by the isolated roots is the squarefree part
        assert roots[0].defining == P("(x - 1)*(x + 2)").monic()

    def test_rational_root_products(self):
        values = [Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(2), Fraction(7, 3)]
        p = Polynomial.one()
        for v in values:
            p = p * Polynomial((-v, 1))
        roots = isolate_real_roots(p)
        assert len(roots) == len(values)
        for r, v in zip(roots, values):
            assert r == v

    def test_sorted_and_disjoint(self):
        roots = isolate_real_roots(P("(x^2 - 2)*(x^2 - 3)*(x - 1)*(x + 5)"))
        assert len(roots) == 6
        for a, b in zip(roots, roots[1:]):
            assert a < b

    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=5, unique=True))
    @settings(max_examples=50)
    def test_exact_recovery_of_integer_roots(self, values):
        p = Polynomial.one()
        for v in values:
            p = p * Polynomial((-v, 1))
        roots = isolate_real_roots(p)
        assert len(roots) == len(values)
        for r, v in zip(roots, sorted(values)):
            assert r == Fraction(v)


#### algebraic number semantics


class TestAlgebraicReal:
    def test_from_rational(self):
        r = AlgebraicReal.from_rational(Fraction(5, 3))
        assert r.as_rational() == Fraction(5, 3)
        assert r == Fraction(5, 3)
        assert r != Fraction(2)

    def test_unhashable(self):
        r = AlgebraicReal.from_rational(2)
        with pytest.raises(TypeError):
            hash(r)

    def test_invalid_intervals(self):
        with pytest.raises(ValueError):
            AlgebraicReal(P("x^2 - 1"), -2, 2)  # two roots
        with pytest.raises(ValueError):
            AlgebraicReal(P("x^2 - 1"), 1, 2)  # endpoint is a root
        with pytest.raises(ValueError):
            AlgebraicReal(P("x^2 - 2"), 2, 3)  # no root
        with pytest.raises(ValueError):
            AlgebraicReal(P("x^2"), -1, 1)  # not squarefree

    def test_equality_across_definings(self):
        sqrt2 = isolate_real_roots(P("x^2 - 2"))[1]
        other = isolate_real_roots(P("(x^2 - 2)*(x^2 - 3)"))
        assert other[2] == sqrt2
        assert other[3] != sqrt2
        assert AlgebraicReal(P("x^2 - 4"), 1, 3) == AlgebraicReal.from_rational(2)

    def test_equals_takes_a_gcd_only_across_definings(self, monkeypatch):
        golden = isolate_real_roots(P("x^2 - x - 1"))
        refined = isolate_real_roots(P("2*x^2 - 2*x - 2"))
        for r in refined:
            r.refine_below(Fraction(1, 1000))
        # overlapping isolating intervals of different roots of one polynomial
        below, above = AlgebraicReal(P("x^2 - x - 1"), -1, 1), AlgebraicReal(P("x^2 - x - 1"), 0, 2)
        mixed = {
            "x^2 - 2": ["-r2", "r2"],
            "(x^2 - 2)*(x^2 - 3)": ["-r3", "-r2", "r2", "r3"],
            "x^2 - 3": ["-r3", "r3"],
            "x - 7/5": ["7/5"],
        }
        labelled = [
            (label, r) for text, labels in mixed.items()
            for label, r in zip(labels, isolate_real_roots(P(text)))
        ]
        calls = []
        gcd = Polynomial.gcd
        monkeypatch.setattr(Polynomial, "gcd", lambda p, q: calls.append(1) or gcd(p, q))
        for i, a in enumerate(golden):
            for j, b in enumerate(golden + refined):
                assert a.equals(b) == (i == j % 2)
        assert not below.equals(above) and not above.equals(below)
        assert calls == []
        for la, a in labelled:
            for lb, b in labelled:
                assert a.equals(b) == (la == lb)
        assert calls

    def test_comparisons_with_rationals(self):
        sqrt2 = isolate_real_roots(P("x^2 - 2"))[1]
        assert sqrt2 > Fraction(7, 5)
        assert sqrt2 < Fraction(3, 2)
        assert not sqrt2 == Fraction(7, 5)

    def test_comparisons_between_algebraics(self):
        r = isolate_real_roots(P("(x^2 - 2)*(x^2 - 3)"))
        sqrt2, sqrt3 = r[2], r[3]
        assert sqrt2 < sqrt3
        assert sqrt3 > sqrt2
        assert sqrt2 <= sqrt2
        assert not sqrt2 < sqrt2

    def test_compare_of_equal_numbers_is_bounded(self, monkeypatch):
        # with equality misreported, refinement alone never separates a root
        # from its copy; the separation bound stops it
        sqrt2 = isolate_real_roots(P("x^2 - 2"))[1]
        copy = isolate_real_roots(P("2*x^2 - 4"))[1]
        monkeypatch.setattr(AlgebraicReal, "equals", lambda self, other: False)
        start = time.monotonic()
        with pytest.raises(InconsistencyError, match="not separated"):
            sqrt2.compare(copy)
        assert time.monotonic() - start < 1

    def test_separation_bound_holds(self):
        # the closest pair of roots of (x^2 - 2)(x - 1414/1000) is 0.0002 apart
        f = _primitive_int_coeffs(P("x^2 - 2"))
        g = _primitive_int_coeffs(P("x - 1414/1000"))
        assert Fraction(1, 2 ** separation_bits(f, g)) < Fraction(2, 10 ** 4)
        # two roots of one polynomial, 1/1000 apart
        h = _primitive_int_coeffs(P("(x - 1)*(x - 1001/1000)"))
        assert Fraction(1, 2 ** separation_bits(h, h)) < Fraction(1, 1000)
        r = isolate_real_roots(P("x^2 - 2"))[1]
        assert r.compare(Fraction(1414, 1000)) == 1
        assert r > isolate_real_roots(P("x - 1414/1000"))[0]

    def test_refine_preserves_value(self):
        sqrt2 = isolate_real_roots(P("x^2 - 2"))[1]
        d = sqrt2.defining
        for _ in range(20):
            assert sgn(d(sqrt2.lo)) * sgn(d(sqrt2.hi)) == -1
            sqrt2.refine()
        assert sqrt2.hi - sqrt2.lo < Fraction(1, 10 ** 5)
        assert sqrt2.lo ** 2 < 2 < sqrt2.hi ** 2

    def test_refine_evaluates_lo_once(self, monkeypatch):
        # each step evaluates the midpoint only; the intervals are those of
        # plain bisection on the signs of d
        root = isolate_real_roots(P("x^3 - 2*x - 5"))[0]
        d = root.defining
        lo, hi = root.lo, root.hi
        calls = []
        evaluate = hermsig.realroots._eval_int_sign
        monkeypatch.setattr(
            hermsig.realroots, "_eval_int_sign", lambda c, v: calls.append(v) or evaluate(c, v)
        )
        for _ in range(30):
            root.refine()
            mid = (lo + hi) / 2
            if sgn(d(mid)) == sgn(d(lo)):
                lo = mid
            else:
                hi = mid
            assert (root.lo, root.hi) == (lo, hi)
            r = (lo + 3 * hi) / 4
            assert root.compare_rational(r) == (1 if sgn(d(r)) == sgn(d(lo)) else -1)
        # one evaluation at lo, then one at each midpoint and at each r
        assert len(calls) == 1 + 30 + 30

    def test_refine_through_rational_midpoint(self):
        # interval placed so that bisection lands exactly on the root
        r = AlgebraicReal(P("x - 1"), 0, 2)
        for _ in range(10):
            r.refine()
        assert r == Fraction(1)

    def test_str(self):
        assert str(AlgebraicReal.from_rational(Fraction(1, 2))) == "1/2"
        sqrt2 = isolate_real_roots(P("x^2 - 2"))[1]
        assert str(sqrt2).startswith("root(x^2 - 2,[")


#### Tarski queries and signs


class TestTarskiQuery:
    def test_weighted_counts(self):
        d = P("x^3 - x")  # roots -1, 0, 1
        lo, hi = Fraction(-2), Fraction(2)
        assert tarski_query(P("1"), d, lo, hi) == 3
        assert tarski_query(P("x"), d, lo, hi) == 0
        assert tarski_query(P("x + 1/2"), d, lo, hi) == 1
        assert tarski_query(P("x^2"), d, lo, hi) == 2
        assert tarski_query(P("0"), d, lo, hi) == 0

    def test_window(self):
        d = P("x^3 - x")
        assert tarski_query(P("1"), d, Fraction(-1, 2), Fraction(2)) == 2
        assert tarski_query(P("x"), d, Fraction(1, 2), Fraction(2)) == 1


class TestSignAt:
    def test_rational_point(self):
        t = AlgebraicReal.from_rational(Fraction(3, 2))
        assert sign_at(P("x^2 - 2"), t) == 1
        assert sign_at(P("x^2 - 3"), t) == -1
        assert sign_at(P("2*x - 3"), t) == 0

    def test_at_sqrt2(self):
        sqrt2 = isolate_real_roots(P("x^2 - 2"))[1]
        assert sign_at(P("x^2 - 2"), sqrt2) == 0
        assert sign_at(P("x - 2"), sqrt2) == -1
        assert sign_at(P("x - 1"), sqrt2) == 1
        assert sign_at(P("x^3 - 3"), sqrt2) == -1  # 2*sqrt(2) < 3
        assert sign_at(P("x^6 - 7"), sqrt2) == 1  # 8 > 7

    def test_at_cubic_root(self):
        # unique real root of x^3 - x - 1, approximately 1.3247
        theta = isolate_real_roots(P("x^3 - x - 1"))[0]
        assert sign_at(P("x^2 - 2"), theta) == -1
        assert sign_at(P("x - 1"), theta) == 1
        assert sign_at(P("x^3 - x - 1"), theta) == 0

    def test_zero_and_constants(self):
        sqrt2 = isolate_real_roots(P("x^2 - 2"))[1]
        assert sign_at(Polynomial.zero(), sqrt2) == 0
        assert sign_at(P("7"), sqrt2) == 1
        assert sign_at(P("-3"), sqrt2) == -1


_pool_definings = [
    "x^2 - 2",
    "x^2 - 3",
    "x^3 - x - 1",
    "x^3 - 2",
    "x^4 - 2*x^2 - 1",
    "x^5 - x - 1",
    "x^2 - x - 1",
]


@st.composite
def algebraic_points(draw):
    d = P(draw(st.sampled_from(_pool_definings)))
    roots = isolate_real_roots(d)
    return roots[draw(st.integers(0, len(roots) - 1))]


int_polys = st.lists(st.integers(-9, 9), max_size=6).map(Polynomial)


class TestSignAgainstOracle:
    @given(algebraic_points(), int_polys)
    @settings(max_examples=120, deadline=None)
    def test_matches_interval_oracle(self, theta, p):
        assert sign_at(p, theta) == oracle_sign_at(p, theta)

    @given(algebraic_points(), int_polys, int_polys)
    @settings(max_examples=80, deadline=None)
    def test_multiplicative(self, theta, p, q):
        assert sign_at(p * q, theta) == sign_at(p, theta) * sign_at(q, theta)

    def test_sign_of_defining_factor(self):
        # p sharing the defining factor must report exact zero
        theta = isolate_real_roots(P("x^3 - 2"))[0]
        p = P("(x^3 - 2)*(x - 5)")
        assert sign_at(p, theta) == 0
        assert oracle_sign_at(p, theta) == 0


def test_merge_sorted_roots():
    # equal roots across groups collapse, rational roots included
    a = isolate_real_roots(P("x^2 - 2"))
    b = isolate_real_roots(P("x^3 - x"))
    c = isolate_real_roots(P("x^2 - 2"))
    merged = merge_centers([a, b, c])
    assert len(merged) == 5
    assert merged[1] == Fraction(-1)
    assert merged[2] == Fraction(0)
    assert merged[3] == Fraction(1)
    assert merged[0] == a[0] and merged[4] == a[1]
    for x, y in zip(merged, merged[1:]):
        assert x < y
